"""The grid of matrix kinds that pins MatrixKind's validation, labels and builds.

The grid is every (tag, v, s, k, t, l, i) with v, s, k in 0..4 and t, l, i in
{None, -1, 0, 1, 2}.  ``record()`` gives, per tag, one bit per grid point
(does MatrixKind accept it?) and one SHA-256 over describe() and the built
matrix of every accepted point whose t, l and i are not negative.

    PYTHONPATH=src python tests/kind_grid.py > tests/data/kind_grid.json

writes the record of the library on the path; ``tests/data/kind_grid.json``
holds the one of the library before the kinds became a table.
"""

import base64
import hashlib
import json
from itertools import product

from imtk.build import MatrixKind, build

TAGS = ("W", "Wbar", "U", "Uge", "A", "N", "F", "Utl", "X", "Y")
SIZES = range(5)
PARAMS = (None, -1, 0, 1, 2)


def points(tag):
    """The grid points of one tag, in a fixed order."""
    for v, s, k, t, l, i in product(SIZES, SIZES, SIZES, PARAMS, PARAMS, PARAMS):
        yield tag, v, s, k, t, l, i


def is_negative(point) -> bool:
    return any(x is not None and x < 0 for x in point[4:])


def record() -> dict:
    accepted, digest = {}, {}
    for tag in TAGS:
        bits, h = [], hashlib.sha256()
        for point in points(tag):
            try:
                kind = MatrixKind(*point)
            except ValueError:
                bits.append(0)
                continue
            bits.append(1)
            if not is_negative(point):
                m = build(kind)
                h.update(repr((point, kind.describe(), m.den, m.stack.tolist())).encode())
        packed = int("".join(map(str, bits)), 2).to_bytes((len(bits) + 7) // 8, "big")
        accepted[tag] = base64.b64encode(packed).decode()
        digest[tag] = h.hexdigest()
    return {"accepted": accepted, "digest": digest}


def accepted_bits(encoded: str, n: int) -> list[int]:
    """The n bits that ``record()`` packed into ``encoded``."""
    return [int(c) for c in bin(int.from_bytes(base64.b64decode(encoded), "big"))[2:].zfill(n)]


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
