"""Detection-FSM generation and execution (Sec. IV-A).

The detection ranges 𝔻 are encoded as a finite state machine over the ID
bits, MSB first — "in effect, the FSM is a binary tree since each transition
input can be either 0 or 1".  The FSM decides as early as the observed prefix
determines membership: if every completion of the prefix is in 𝔻 the frame
is malicious; if none is, it is benign; otherwise it keeps consuming bits.

The generator works on prefix intervals: a prefix ``p`` of length ``k``
covers the ID range ``[p << (w-k), ((p+1) << (w-k)) - 1]`` for a ``w``-bit
identifier.  Membership queries run against an
:class:`~repro.can.intervals.IdIntervalSet`, so generation scales from the
2,048 identifiers of CAN 2.0A (``id_bits=11``) to the 2^29 of extended
CAN 2.0B frames (``id_bits=29``) without enumerating anything.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.can.constants import ID_BITS, NUM_STD_IDS
from repro.can.intervals import IdIntervalSet, as_interval_set
from repro.errors import ConfigurationError

#: Identifier width of CAN 2.0B extended frames.
EXTENDED_ID_BITS = 29


class Verdict(enum.Enum):
    """Outcome of running the FSM over a (partial) CAN ID."""

    # Identity hash: members are singletons compared by identity, and the
    # per-bit dispatch/membership tests hash them millions of times.
    __hash__ = object.__hash__

    PENDING = "pending"
    MALICIOUS = "malicious"
    BENIGN = "benign"


@dataclass(frozen=True)
class FsmStats:
    """Static complexity measures of a generated FSM.

    Attributes:
        states: Number of internal (non-terminal) states.
        max_depth: Worst-case number of ID bits consumed before a decision.
        mean_malicious_depth: Average decision bit position over malicious
            IDs (the paper's *detection bit position*, Sec. V-B).
        mean_depth: Average decision bit position over all sampled IDs.
    """

    states: int
    max_depth: int
    mean_malicious_depth: float
    mean_depth: float


class DetectionFsm:
    """A compiled detection FSM for one ECU's detection set 𝔻.

    Args:
        detection_ids: The IDs to flag — an iterable of integers or an
            :class:`IdIntervalSet` (mandatory for 29-bit ranges of
            meaningful size).
        id_bits: Identifier width: 11 (classical) or 29 (extended).

    The transition table maps ``state -> (next_on_0, next_on_1)`` where a
    *next* entry is either another state index or a terminal
    :class:`Verdict`.  State 0 is the root (no ID bits consumed yet).
    """

    def __init__(
        self,
        detection_ids: Union[IdIntervalSet, Iterable[int]],
        id_bits: int = ID_BITS,
    ) -> None:
        if id_bits not in (ID_BITS, EXTENDED_ID_BITS):
            raise ConfigurationError(
                f"id_bits must be 11 (classical) or 29 (extended), got {id_bits}"
            )
        ids = as_interval_set(detection_ids)
        ceiling = (1 << id_bits) - 1
        for lo, hi in ids.intervals():
            if lo < 0 or hi > ceiling:
                raise ConfigurationError(
                    f"detection range [{lo:#x}, {hi:#x}] out of "
                    f"{id_bits}-bit identifier space"
                )
        self.id_bits = id_bits
        self.detection_ids: IdIntervalSet = ids
        self._table: List[Tuple[object, object]] = []
        self._build()

    # ----------------------------------------------------------------- build

    def _prefix_verdict(self, value: int, length: int) -> Optional[Verdict]:
        """Decide for the prefix ``value`` of ``length`` bits, if possible."""
        lo = value << (self.id_bits - length)
        hi = ((value + 1) << (self.id_bits - length)) - 1
        if self.detection_ids.covers_range(lo, hi):
            return Verdict.MALICIOUS
        if not self.detection_ids.intersects_range(lo, hi):
            return Verdict.BENIGN
        return None

    def _build(self) -> None:
        # Breadth-first construction keeps state numbering stable and makes
        # the root state 0, which the firmware expects.
        self._table = []
        index_of: Dict[Tuple[int, int], int] = {}
        frontier: List[Tuple[int, int]] = [(0, 0)]
        index_of[(0, 0)] = 0
        self._table.append((None, None))
        head = 0
        while head < len(frontier):
            value, length = frontier[head]
            state = index_of[(value, length)]
            successors = []
            for bit in (0, 1):
                child = (value << 1) | bit
                verdict = self._prefix_verdict(child, length + 1)
                if verdict is not None:
                    successors.append(verdict)
                else:
                    key = (child, length + 1)
                    if key not in index_of:
                        index_of[key] = len(self._table)
                        self._table.append((None, None))
                        frontier.append(key)
                    successors.append(index_of[key])
            self._table[state] = (successors[0], successors[1])
            head += 1

    # ------------------------------------------------------------------- run

    def runner(self) -> "FsmRunner":
        """A fresh per-frame execution cursor."""
        return FsmRunner(self)

    def classify(self, can_id: int) -> Verdict:
        """Run the whole ID through the FSM (reference semantics)."""
        runner = self.runner()
        for bit_index in range(self.id_bits):
            bit = (can_id >> (self.id_bits - 1 - bit_index)) & 1
            verdict = runner.step(bit)
            if verdict is not Verdict.PENDING:
                return verdict
        raise AssertionError("FSM must decide within the ID width")

    def decision_depth(self, can_id: int) -> int:
        """Bit position (1-based) at which the FSM decides for ``can_id``."""
        runner = self.runner()
        for bit_index in range(self.id_bits):
            bit = (can_id >> (self.id_bits - 1 - bit_index)) & 1
            if runner.step(bit) is not Verdict.PENDING:
                return bit_index + 1
        raise AssertionError("FSM must decide within the ID width")

    # ----------------------------------------------------------------- stats

    @property
    def num_states(self) -> int:
        return len(self._table)

    def stats(self, samples: int = 4096, seed: int = 0) -> FsmStats:
        """Complexity statistics.

        For 11-bit FSMs all 2,048 identifiers are evaluated exactly; for
        29-bit FSMs a seeded uniform sample of ``samples`` identifiers (plus
        a sample of the detection set) is used.
        """
        if self.id_bits == ID_BITS:
            population: Iterable[int] = range(NUM_STD_IDS)
        else:
            rng = random.Random(seed)
            ceiling = (1 << self.id_bits) - 1
            population = [rng.randint(0, ceiling) for _ in range(samples)]

        depths: List[int] = []
        malicious_depths: List[int] = []
        for can_id in population:
            depth = self.decision_depth(can_id)
            depths.append(depth)
            if can_id in self.detection_ids:
                malicious_depths.append(depth)
        if self.id_bits != ID_BITS and self.detection_ids:
            # Guarantee malicious coverage in the sampled regime.
            rng = random.Random(seed + 1)
            intervals = self.detection_ids.intervals()
            for _ in range(min(samples, 512)):
                lo, hi = intervals[rng.randrange(len(intervals))]
                malicious_depths.append(
                    self.decision_depth(rng.randint(lo, hi))
                )
        mean_mal = (
            sum(malicious_depths) / len(malicious_depths)
            if malicious_depths
            else 0.0
        )
        return FsmStats(
            states=self.num_states,
            max_depth=max(depths),
            mean_malicious_depth=mean_mal,
            mean_depth=sum(depths) / len(depths),
        )


class FsmRunner:
    """Per-frame FSM cursor: feed ID bits MSB-first, read the verdict."""

    def __init__(self, fsm: DetectionFsm) -> None:
        self._fsm = fsm
        self._state: object = 0
        self.verdict = Verdict.PENDING
        #: 1-based bit position at which the verdict was reached.
        self.decision_bit: Optional[int] = None
        self._bits_consumed = 0

    def reset(self) -> None:
        self._state = 0
        self.verdict = Verdict.PENDING
        self.decision_bit = None
        self._bits_consumed = 0

    def step(self, bit: int) -> Verdict:
        """Consume one ID bit; returns the (possibly still pending) verdict."""
        if bit not in (0, 1):
            raise ConfigurationError(f"ID bit must be 0 or 1, got {bit!r}")
        if self.verdict is not Verdict.PENDING:
            return self.verdict
        self._bits_consumed += 1
        successors = self._fsm._table[self._state]  # noqa: SLF001
        nxt = successors[bit]
        if isinstance(nxt, Verdict):
            self.verdict = nxt
            self.decision_bit = self._bits_consumed
        else:
            self._state = nxt
        return self.verdict


def fsm_for_detection_ids(
    detection_ids: Union[IdIntervalSet, Iterable[int]],
    id_bits: int = ID_BITS,
) -> DetectionFsm:
    """Build the FSM for an explicit detection set (offline OEM step)."""
    return DetectionFsm(detection_ids, id_bits=id_bits)
