"""The checker's one-pass per-line audit against a model of the five
per-line rule methods it replaced and of the retired post-repair audit.

``CheckerModel`` is those methods as they were: the six bit rules,
``vol-buildable``, ``vol-acyclic``, ``version-order-total``, the two X
rules and ``t-clear-implies-fresh``, each in its own method, run in that
order. For a just-repaired line (``repaired=True``) it adds the pointer
and T conditions of the debug audit ``repro.svc.vol`` used to run after
every repair: each pointer names its VOL successor
(``vol-pointers-repaired``, after ``vol-acyclic``), and T equals "not
fresh" (``t-set-implies-stale``, in the T walk).
Hypothesis draws one line's holder state under each design tier, and
``InvariantChecker._svc_lines`` must raise the same violation (rule,
message, subject and detail) as the model in both scopes, or both must
pass. A line that breaks several rules therefore still reports the
earliest one. The model orders the VOL with
:func:`repro.svc.vol.build_vol`, which ``tests/svc/test_vol.py`` holds
to the key-sorted reconstruction it replaced.
"""

from typing import Dict

from hypothesis import example, given, settings, strategies as st

from repro.check import InvariantChecker
from repro.common.config import SVCConfig
from repro.common.errors import InvariantViolation, ProtocolError
from repro.svc.designs import DESIGNS, design_config
from repro.svc.line import SVCLine
from repro.svc.system import SVCSystem
from repro.svc.vol import build_vol, closest_previous_writer, rewrite_pointers

A = 0x1000
#: A pointer to a cache that holds no copy of the line.
DANGLING = 7


class CheckerModel:
    """The per-line rules as five methods, one walk each, with the
    checker's rule names and messages."""

    def _fail(self, invariant: str, message: str, subject=None, **detail):
        raise InvariantViolation(invariant, message, subject=subject, **detail)

    def _svc_lines(
        self, system, items, ranks: Dict[int, int], repaired: bool = False
    ) -> None:
        features = system.features
        full = system.amap.full_mask
        memory_stamps = system.vcl._memory_stamps
        zero_stamps = [0] * system.amap.blocks_per_line
        for line_addr, entries in items:
            self._svc_bits(features, full, line_addr, entries)
            try:
                vol = build_vol(entries, ranks)
            except ProtocolError as exc:
                self._fail("vol-buildable", str(exc), subject=line_addr)
            self._svc_pointer_chain(line_addr, entries)
            if repaired:
                self._svc_pointers_repaired(line_addr, entries, vol)
            self._svc_version_order(line_addr, entries, vol)
            self._svc_exclusivity(line_addr, entries, vol)
            if features.stale_bit:
                self._svc_stale_bits(
                    line_addr,
                    entries,
                    vol,
                    memory_stamps.get(line_addr, zero_stamps),
                    repaired,
                )

    def _svc_bits(self, features, full, line_addr, entries) -> None:
        for cache_id, line in entries.items():
            if line.committed and not features.lazy_commit:
                self._fail(
                    "c-requires-ec",
                    f"line {line_addr:#x} has C set but the design has no C bit "
                    "(base design commits write back eagerly, section 3.2.6)",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.stale and not features.stale_bit:
                self._fail(
                    "t-requires-ec",
                    f"line {line_addr:#x} has T set but the design has no T bit",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.architectural and not features.architectural_bit:
                self._fail(
                    "a-requires-ecs",
                    f"line {line_addr:#x} has A set but the design has no A bit",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if (line.valid_mask | line.store_mask | line.load_mask) & ~full:
                for name, mask in (
                    ("valid", line.valid_mask),
                    ("store", line.store_mask),
                    ("load", line.load_mask),
                ):
                    if mask & ~full:
                        self._fail(
                            "mask-in-range",
                            f"line {line_addr:#x} {name}_mask {mask:#x} exceeds "
                            f"the line's block mask {full:#x}",
                            subject=line_addr,
                            cache=cache_id,
                            state=line.describe(),
                        )
            if line.store_mask & ~line.valid_mask:
                self._fail(
                    "stores-are-valid",
                    f"line {line_addr:#x} in cache {cache_id} owns blocks "
                    f"{line.store_mask:#x} without valid data "
                    f"(valid {line.valid_mask:#x})",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )
            if line.written_back and not line.committed:
                self._fail(
                    "writeback-implies-committed",
                    f"line {line_addr:#x} in cache {cache_id} is marked "
                    "written-back while still active",
                    subject=line_addr,
                    cache=cache_id,
                    state=line.describe(),
                )

    def _svc_pointer_chain(self, line_addr, entries) -> None:
        n_holders = len(entries)
        for start, line in entries.items():
            pointer = line.pointer
            steps = 0
            while pointer in entries:
                steps += 1
                if steps == n_holders:
                    visited = {start}
                    nxt = entries[start].pointer
                    while nxt not in visited:
                        visited.add(nxt)
                        nxt = entries[nxt].pointer
                    self._fail(
                        "vol-acyclic",
                        f"line {line_addr:#x}: VOL pointer chain from cache "
                        f"{start} revisits cache {nxt} "
                        f"(chain {sorted(visited)})",
                        subject=line_addr,
                    )
                pointer = entries[pointer].pointer

    def _svc_pointers_repaired(self, line_addr, entries, vol) -> None:
        """The retired debug audit's pointer check."""
        for index, cache_id in enumerate(vol):
            expected = vol[index + 1] if index + 1 < len(vol) else None
            if entries[cache_id].pointer != expected:
                self._fail(
                    "vol-pointers-repaired",
                    f"line {line_addr:#x}: pointer of cache {cache_id} is "
                    f"{entries[cache_id].pointer} right after a repair, "
                    f"expected {expected} (VOL {vol})",
                    subject=line_addr,
                    cache=cache_id,
                )

    def _svc_version_order(self, line_addr, entries, vol) -> None:
        seen: Dict[int, int] = {}
        for cache_id in vol:
            line = entries[cache_id]
            if line.committed and line.store_mask:
                if line.version_seq in seen:
                    self._fail(
                        "version-order-total",
                        f"line {line_addr:#x}: committed versions in caches "
                        f"{seen[line.version_seq]} and {cache_id} share stamp "
                        f"{line.version_seq}; their writeback order is "
                        "undefined",
                        subject=line_addr,
                    )
                seen[line.version_seq] = cache_id

    def _svc_exclusivity(self, line_addr, entries, vol) -> None:
        holders = [cid for cid in vol if entries[cid].exclusive]
        if len(holders) > 1:
            self._fail(
                "x-unique",
                f"line {line_addr:#x}: caches {holders} all claim "
                "exclusivity",
                subject=line_addr,
            )
        if not holders:
            return
        for cache_id in vol:
            line = entries[cache_id]
            if cache_id != holders[0] and line.valid_mask:
                self._fail(
                    "x-implies-sole-holder",
                    f"line {line_addr:#x}: cache {holders[0]} holds X but "
                    f"cache {cache_id} holds valid blocks "
                    f"{line.valid_mask:#x} (VOL {vol}); a silent store "
                    "would leave that copy's T bit clear on stale data",
                    subject=line_addr,
                )

    def _svc_stale_bits(
        self, line_addr, entries, vol, memory_stamps, repaired
    ) -> None:
        tail = list(memory_stamps)
        for cache_id in vol:
            line = entries[cache_id]
            writes = line.store_mask & line.valid_mask
            content = line.block_content
            block = 0
            while writes:
                if writes & 1:
                    tail[block] = content[block]
                writes >>= 1
                block += 1
        for cache_id in vol:
            line = entries[cache_id]
            if line.stale:
                # The retired debug audit's T check: T == not fresh.
                if repaired and _is_fresh(line, tail):
                    self._fail(
                        "t-set-implies-stale",
                        f"line {line_addr:#x} in cache {cache_id} has T set "
                        "right after a repair, but its valid blocks match the "
                        f"tail-of-VOL composition (stamps {line.block_content} "
                        f"vs tail {tail})",
                        subject=line_addr,
                        cache=cache_id,
                    )
                continue
            valid = line.valid_mask
            content = line.block_content
            block = 0
            while valid:
                if valid & 1 and content[block] != tail[block]:
                    self._fail(
                        "t-clear-implies-fresh",
                        f"line {line_addr:#x} in cache {cache_id} has T clear "
                        f"but its valid blocks do not match the tail-of-VOL "
                        f"composition (stamps {line.block_content} vs tail "
                        f"{tail})",
                        subject=line_addr,
                        cache=cache_id,
                    )
                valid >>= 1
                block += 1


def _tail_stamps(entries, vol, memory):
    """The stamps a new tail task's fill would receive: each block's
    closest previous writer's, else memory's (the retired
    ``repro.svc.vol.tail_stamps``)."""
    stamps = list(memory)
    for block in range(len(memory)):
        writer = closest_previous_writer(entries, vol, len(vol), block)
        if writer is not None:
            stamps[block] = entries[writer].block_content[block]
    return stamps


def _is_fresh(line: SVCLine, tail) -> bool:
    """Every valid block holds the tail's stamp (the retired
    ``repro.svc.vol.is_fresh``)."""
    for block, stamp in enumerate(tail):
        if line.valid_mask & (1 << block) and line.block_content[block] != stamp:
            return False
    return True


def _system(tier: str, memory) -> SVCSystem:
    """A four-cache system of ``tier`` whose VCL holds ``memory`` (or no
    stamps) for the line: ``_svc_lines`` reads only its features, its
    address map and those stamps."""
    system = SVCSystem(design_config(tier, SVCConfig()))
    if memory is not None:
        system.vcl._memory_stamps[A] = list(memory)
    return system


def _rarely(draw) -> bool:
    """True about one draw in 32 (shrinks to False)."""
    return draw(st.integers(0, 31)) == 31


@st.composite
def line_states(draw):
    """``(tier, fields, ranks, memory)`` for one line: ``fields`` maps each
    holder's cache id (ascending) to its ``SVCLine`` fields. Most bits are
    legal for the tier, so states reach the later rules; each rule can
    still break, alone or with others."""
    tier = draw(st.sampled_from(sorted(DESIGNS)))
    config = design_config(tier, SVCConfig())
    features = config.features
    n_blocks = config.geometry.address_map.blocks_per_line
    full = config.geometry.address_map.full_mask
    beyond = full + 1  # the first block just outside the line
    stamp = st.integers(0, 3)  # few values, so stamps are often shared
    holders = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=4)))

    def mask(within):
        """A mask inside ``within``, whole half the time, and rarely with
        the first bit past the line set."""
        value = within if draw(st.booleans()) else within & draw(st.integers(0, full))
        return value | beyond if _rarely(draw) else value

    fields = {}
    for cache_id in holders:
        valid = mask(full)
        committed = draw(st.booleans()) if features.lazy_commit else _rarely(draw)
        fields[cache_id] = dict(
            valid_mask=valid,
            store_mask=mask(full) if _rarely(draw) else mask(valid & full),
            load_mask=mask(full),
            committed=committed,
            stale=draw(st.booleans()) if features.stale_bit else _rarely(draw),
            architectural=(
                draw(st.booleans()) if features.architectural_bit else _rarely(draw)
            ),
            exclusive=draw(st.integers(0, 2)) == 2,
            written_back=(committed and draw(st.booleans())) or _rarely(draw),
            pointer=draw(st.sampled_from([None, DANGLING, *holders])),
            version_seq=draw(st.integers(0, 1)),
            block_content=[draw(stamp) for _ in range(n_blocks)],
        )
    ranks = dict(zip(holders, draw(st.permutations(range(len(holders))))))
    if _rarely(draw):
        del ranks[draw(st.sampled_from(holders))]
    memory = draw(st.none() | st.lists(stamp, min_size=n_blocks, max_size=n_blocks))
    if draw(st.booleans()):
        _repair(features.stale_bit, fields, ranks, memory or [0] * n_blocks)
    return tier, fields, ranks, memory


def _repair(stale_bit, fields, ranks, memory) -> None:
    """What the VCL's repair leaves: pointers along the VOL and, with a T
    bit, T set exactly on stale lines. Skipped when no VOL can be built."""
    entries = _entries(fields)
    try:
        vol = build_vol(entries, ranks)
    except ProtocolError:
        return
    rewrite_pointers(entries, vol)
    if stale_bit:
        tail = _tail_stamps(entries, vol, memory)
        for line in entries.values():
            line.stale = not _is_fresh(line, tail)
    for cache_id, line in entries.items():
        fields[cache_id].update(pointer=line.pointer, stale=line.stale)


def _entries(fields) -> Dict[int, SVCLine]:
    return {
        cache_id: SVCLine(data=bytearray(16), **line)
        for cache_id, line in fields.items()
    }


def _audit(checker, tier, fields, ranks, memory, repaired):
    """The violation ``checker`` raises on the line, or ``None``."""
    system = _system(tier, memory)
    try:
        checker._svc_lines(
            system, ((A, _entries(fields)),), dict(ranks), repaired
        )
    except InvariantViolation as violation:
        return violation.invariant, str(violation), violation.subject, violation.detail
    return None


def _committed_version(seq, exclusive=False):
    return dict(
        valid_mask=1, store_mask=1, committed=True, exclusive=exclusive,
        version_seq=seq, block_content=[seq],
    )


@settings(max_examples=1000, deadline=None)
@given(state=line_states())
# Two X holders and two versions sharing a stamp: version-order-total is
# the earlier rule, though a walk meets the second X holder first.
@example(state=(
    "ec",
    {
        0: _committed_version(1, exclusive=True),
        1: _committed_version(2, exclusive=True),
        2: _committed_version(2),
    },
    {},
    None,
))
# A clear T on stale data before another valid copy beside the X holder:
# x-implies-sole-holder is the earlier rule.
@example(state=(
    "final",
    {
        0: dict(valid_mask=0xF, block_content=[0, 0, 0, 5], pointer=1),
        1: dict(valid_mask=0xF, store_mask=0x1, exclusive=True,
                block_content=[1, 0, 0, 0], stale=True),
    },
    {0: 0, 1: 1},
    None,
))
def test_one_pass_reports_what_the_rule_methods_report(state):
    tier, fields, ranks, memory = state
    for repaired in (False, True):
        expected = _audit(CheckerModel(), tier, fields, ranks, memory, repaired)
        assert (
            _audit(InvariantChecker(), tier, fields, ranks, memory, repaired)
            == expected
        )
