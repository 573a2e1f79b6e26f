"""``# repro: noqa`` suppression comments.

A finding is silenced when the physical line it is anchored to carries a
suppression comment:

* ``# repro: noqa`` silences every rule on that line;
* ``# repro: noqa[RC101]`` / ``# repro: noqa[RC101, RC103]`` silence only
  the listed codes.

The marker is namespaced (``repro:``) so it never collides with flake8 /
ruff ``# noqa`` handling, and suppressions are counted in the report so a
silenced rule stays visible in review.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)

#: Marker meaning "every code is suppressed on this line".
ALL_CODES = "*"


class SuppressionIndex:
    """Per-line suppression lookup for one source file."""

    def __init__(self, source_lines: List[str]) -> None:
        self._by_line: Dict[int, FrozenSet[str]] = {}
        for number, text in enumerate(source_lines, start=1):
            if "#" not in text:
                continue
            match = _NOQA_RE.search(text)
            if not match:
                continue
            raw = match.group("codes")
            if raw is None:
                self._by_line[number] = frozenset({ALL_CODES})
            else:
                codes = frozenset(
                    part.strip().upper()
                    for part in raw.split(",")
                    if part.strip()
                )
                self._by_line[number] = codes or frozenset({ALL_CODES})

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when rule ``code`` is silenced on ``line``."""
        codes = self._by_line.get(line)
        if codes is None:
            return False
        return ALL_CODES in codes or code.upper() in codes

    def __len__(self) -> int:
        return len(self._by_line)

    def to_mapping(self) -> Dict[int, List[str]]:
        """JSON-safe ``line -> sorted codes`` view (for the analysis cache)."""
        return {line: sorted(codes) for line, codes in self._by_line.items()}

    @classmethod
    def from_mapping(cls, mapping: Dict[int, List[str]]) -> "SuppressionIndex":
        """Rebuild an index from :meth:`to_mapping` output (cache load).

        JSON round-trips dict keys as strings, so keys are coerced back to
        integers here.
        """
        index = cls([])
        index._by_line = {
            int(line): frozenset(str(code) for code in codes)
            for line, codes in mapping.items()
        }
        return index
