"""Branch prediction: a TAGE-style predictor, BTB and return-address stack.

The paper's BOOM core uses a 28 KB TAGE predictor.  We implement a compact
TAGE with a bimodal base table and three tagged tables with geometric
history lengths -- enough to predict loop-closing and correlated branches
well while genuinely mispredicting data-dependent branches, which is what
drives the Flushed-state behaviour the profilers must attribute.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def _fold(value: int, bits: int) -> int:
    folded = 0
    mask = (1 << bits) - 1
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class _TaggedTable:
    """One TAGE component: tagged 3-bit counters with 2-bit usefulness."""

    def __init__(self, entries: int, history_length: int, tag_bits: int = 8):
        self.entries = entries
        self.history_length = history_length
        self.tag_bits = tag_bits
        self.tags: List[int] = [0] * entries
        self.counters: List[int] = [4] * entries  # 0..7, >=4 means taken
        self.useful: List[int] = [0] * entries
        self.valid: List[bool] = [False] * entries

    def folds(self, history: int) -> Tuple[int, int]:
        """The history parts of :meth:`index` and :meth:`tag`: the
        history folded to the index width and to the tag width."""
        hist = history & ((1 << self.history_length) - 1)
        bits = max(self.entries.bit_length() - 1, 1)
        return _fold(hist, bits), _fold(hist, self.tag_bits)

    def index(self, pc: int, history: int) -> int:
        hist = history & ((1 << self.history_length) - 1)
        bits = max(self.entries.bit_length() - 1, 1)
        return (_fold(hist, bits) ^ (pc >> 2) ^ (pc >> 7)) % self.entries

    def tag(self, pc: int, history: int) -> int:
        hist = history & ((1 << self.history_length) - 1)
        return (_fold(hist, self.tag_bits) ^ (pc >> 2)) & \
            ((1 << self.tag_bits) - 1)


class Prediction:
    """One TAGE lookup result (allocated once per fetched branch)."""

    __slots__ = ("taken", "provider", "history")

    def __init__(self, taken: bool, provider: int, history: int = 0):
        self.taken = taken
        #: Which table provided the prediction (-1 = bimodal base).
        self.provider = provider
        #: Global history at prediction time (checkpointed so the
        #: update indexes the same table entries the lookup used).
        self.history = history

    def __repr__(self) -> str:
        return (f"Prediction(taken={self.taken}, "
                f"provider={self.provider}, history={self.history})")


class TagePredictor:
    """TAGE with a bimodal base and geometrically longer tagged tables."""

    HISTORY_LENGTHS = (5, 15, 44)

    def __init__(self, base_entries: int = 4096, tagged_entries: int = 1024):
        self.base: List[int] = [1] * base_entries  # 2-bit, >=2 taken
        self.tables = [_TaggedTable(tagged_entries, length)
                       for length in self.HISTORY_LENGTHS]
        self.history = 0
        self.lookups = 0
        self.mispredicts = 0
        #: Per table: the table, ``history`` folded to its index and tag
        #: widths (:meth:`_TaggedTable.folds`) and its tag mask; and the
        #: history value they were folded from.
        self._folds: List[Tuple[_TaggedTable, int, int, int]] = []
        self._folded_history = -1

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> Prediction:
        """Equal to indexing and tagging every table with
        :meth:`_TaggedTable.index` and :meth:`_TaggedTable.tag`; the
        history changes only in :meth:`update`, so its folds are
        computed once per history value."""
        self.lookups += 1
        history = self.history
        if history != self._folded_history:
            self._folds = [(table, *table.folds(history),
                            (1 << table.tag_bits) - 1)
                           for table in self.tables]
            self._folded_history = history
        provider = -1
        taken = self.base[(pc >> 2) % len(self.base)] >= 2
        word = pc >> 2
        spread = word ^ (pc >> 7)
        i = 0
        for table, index_fold, tag_fold, tag_mask in self._folds:
            idx = (index_fold ^ spread) % table.entries
            if table.valid[idx] and \
                    table.tags[idx] == (tag_fold ^ word) & tag_mask:
                taken = table.counters[idx] >= 4
                provider = i
            i += 1
        return Prediction(taken, provider, history)

    # -- update ---------------------------------------------------------------

    def update(self, pc: int, taken: bool, prediction: Prediction) -> None:
        correct = prediction.taken == taken
        if not correct:
            self.mispredicts += 1

        history = prediction.history
        base_idx = (pc >> 2) % len(self.base)
        if prediction.provider >= 0:
            table = self.tables[prediction.provider]
            idx = table.index(pc, history)
            ctr = table.counters[idx]
            table.counters[idx] = min(ctr + 1, 7) if taken else max(ctr - 1, 0)
            if correct:
                table.useful[idx] = min(table.useful[idx] + 1, 3)
        else:
            ctr = self.base[base_idx]
            self.base[base_idx] = min(ctr + 1, 3) if taken else max(ctr - 1, 0)

        if not correct:
            self._allocate(pc, taken, prediction.provider, history)

        self.history = ((self.history << 1) | int(taken)) & ((1 << 64) - 1)

    def _allocate(self, pc: int, taken: bool, provider: int,
                  history: int) -> None:
        """On a mispredict, allocate in a longer-history table."""
        for i in range(provider + 1, len(self.tables)):
            table = self.tables[i]
            idx = table.index(pc, history)
            if not table.valid[idx] or table.useful[idx] == 0:
                table.valid[idx] = True
                table.tags[idx] = table.tag(pc, history)
                table.counters[idx] = 4 if taken else 3
                table.useful[idx] = 0
                return
            table.useful[idx] -= 1

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class BranchTargetBuffer:
    """Direct-mapped BTB with simple tag matching."""

    def __init__(self, entries: int = 512):
        self.entries = entries
        self._table: dict = {}

    def lookup(self, pc: int) -> Optional[int]:
        slot = self._table.get((pc >> 2) % self.entries)
        if slot is not None and slot[0] == pc:
            return slot[1]
        return None

    def insert(self, pc: int, target: int) -> None:
        self._table[(pc >> 2) % self.entries] = (pc, target)


class ReturnAddressStack:
    """A bounded return-address stack."""

    def __init__(self, entries: int = 16):
        self.entries = entries
        self._stack: List[int] = []

    def push(self, addr: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(addr)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)
