"""SHA-256 over every certificate and rule set the engine builds up to
genus 100, standard library only.

    python tools/certdigest.py

walks the 71 admissible points (d = 3 and 4 with g <= 100, d = 5 with
16 <= g <= 100), each at scales 1, 2 and 1/3.  For each it updates one
SHA-256 with `json.dumps(certify(d, g, s).to_json())` and then with
`json.dumps({label: rule.to_json()}, sort_keys=True)` over
`build_rules(d, g, s)`.  It prints the digest and exits 1 when that
differs from RECORDED, so a change meant to keep every certificate byte
can be checked in one run (a few seconds).  The digest tests of tier-1
pin 26 points at most.

The engine caches what does not depend on the genus, so the tool then
walks the same points again in reverse order, in the same process, and
exits 1, printing (d, g, scale), at any point whose certificate or rule
bytes differ from the first pass: state that one point leaves in a cache
must not change another.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

RECORDED = "a2d6603d5f1f50280fbfe75d42a3c6fd80659d4a5fd61dd62d356f076eb83b44"
SCALES = (Fraction(1), Fraction(2), Fraction(1, 3))


def _points() -> list[tuple[int, int, Fraction]]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from hurwitzcalc.divisor_classes import admissible_genus

    return [(d, g, scale) for d, lowest in ((3, 0), (4, 0), (5, 16))
            for g in range(lowest, 101) if admissible_genus(d, g)
            for scale in SCALES]


def _bytes(d: int, g: int, scale: Fraction) -> tuple[bytes, bytes]:
    """The certificate and rule-set bytes that the digest reads at a point."""
    from hurwitzcalc.yeff import build_rules, certify

    cert = json.dumps(certify(d, g, scale).to_json()).encode()
    rules = build_rules(d, g, scale)
    return cert, json.dumps({label: rule.to_json() for label, rule in rules.items()},
                            sort_keys=True).encode()


def main() -> int:
    points = _points()
    h = hashlib.sha256()
    first = {}
    for point in points:
        cert, rules = _bytes(*point)
        h.update(cert)
        h.update(rules)
        first[point] = hashlib.sha256(cert + b"\0" + rules).digest()
    value = h.hexdigest()
    print(value)
    code = 0
    if value != RECORDED:
        print(f"differs from the recorded {RECORDED}", file=sys.stderr)
        code = 1
    for point in reversed(points):
        cert, rules = _bytes(*point)
        if hashlib.sha256(cert + b"\0" + rules).digest() != first[point]:
            d, g, scale = point
            print(f"(d, g, scale) = ({d}, {g}, {scale}): the reverse pass differs "
                  f"from the first", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
