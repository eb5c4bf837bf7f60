"""Compare two golden output sets written by tools/golden_outputs.py.

    python3 tools/golden_diff.py OLD NEW

Every file present in either directory is compared.  For each file whose
bytes differ it prints whether the non-numeric text is identical, how many
numbers differ, and the largest absolute and relative difference among them
(relative to the larger magnitude of the pair).  A number is a decimal or
exponent literal that does not continue a word, so `seed0` is text and
`-1.5e-07` is a number; NaN and Infinity count as numbers too.

Exit 0 when every difference is numeric only, 1 when a file is missing from
one side or its non-numeric text differs, 2 on bad arguments.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|NaN|Infinity|nan|inf)(?![\w.])"
)


def _split(text: str) -> tuple[list[str], list[str]]:
    """The text between numbers, and the numbers' literals."""
    return NUMBER.split(text), NUMBER.findall(text)


def compare_file(old: Path, new: Path) -> tuple[bool, int, int, float, float]:
    """(text identical, numbers differing, numbers in all, max abs, max rel)."""
    old_text, old_numbers = _split(old.read_text(errors="surrogateescape"))
    new_text, new_numbers = _split(new.read_text(errors="surrogateescape"))
    if old_text != new_text:
        return False, 0, len(old_numbers), math.nan, math.nan
    differing, max_abs, max_rel = 0, 0.0, 0.0
    for a_text, b_text in zip(old_numbers, new_numbers):
        if a_text == b_text:
            continue
        differing += 1
        a, b = float(a_text), float(b_text)
        diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
        max_abs = max(max_abs, diff)
        scale = max(abs(a), abs(b))
        max_rel = max(max_rel, diff / scale if scale else 0.0)
    return True, differing, len(old_numbers), max_abs, max_rel


def golden_diff(old_dir: Path, new_dir: Path) -> int:
    names = sorted(
        {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
        | {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    )
    status, identical = 0, 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: missing from {old_dir if not old.is_file() else new_dir}")
            status = 1
            continue
        if old.read_bytes() == new.read_bytes():
            identical += 1
            continue
        same_text, differing, total, max_abs, max_rel = compare_file(old, new)
        if not same_text:
            print(f"{name}: non-numeric text differs")
            status = 1
            continue
        print(
            f"{name}: non-numeric text identical; {differing} of {total} numbers differ; "
            f"max abs diff {max_abs:.3g}, max rel diff {max_rel:.3g}"
        )
    print(f"{len(names)} files, {identical} byte-identical")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return golden_diff(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
