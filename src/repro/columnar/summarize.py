"""Vectorized summarization kernels over :class:`ColumnarCluster`.

Two kernels, each a drop-in replacement for its scalar reference path:

- :func:`summarize_columns` mirrors
  :func:`repro.core.summarize.summarize_cluster` -- one eager additive
  reduction per poll, computed with masked scatter-adds over the metric
  row axis instead of per-host Python loops.  ``np.add.at`` is an
  unbuffered in-order scatter, so each metric's SUM accumulates in
  document order exactly like the scalar left-to-right fold.
- :class:`ColumnarSummaryTracker` mirrors
  :class:`repro.core.delta_summary.ClusterSummaryTracker` -- the
  incremental tracker that re-reduces only changed hosts, with the
  Neumaier-compensated accumulators held as parallel slot arrays and
  each host's add/subtract applied as one vectorized update (a host's
  metrics touch distinct slots, so the within-host order the scalar
  loop uses is immaterial and the vector form is bit-identical).

Bit-identity discipline: totals, NUM counts, metric dict order, units
backfill, metadata provenance (first occurrence), the drain-to-zero
accumulator drop/rebuild, and the returned op counts (what the CPU
model charges) all match the scalar paths exactly -- including the sign
of zero, which the eager kernel patches up explicitly (a scalar fold of
only ``-0.0`` contributions yields ``-0.0`` while a scatter-add seeded
from ``0.0`` yields ``+0.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnar.layout import ColumnarCluster, InternPool
from repro.wire.model import MetricSummary, SummaryInfo

_NO_ROW = np.iinfo(np.int64).max


def summarize_columns(
    cols: ColumnarCluster,
    heartbeat_window: float = 80.0,
) -> Tuple[SummaryInfo, int]:
    """Eagerly reduce a columnar poll; mirrors ``summarize_cluster``.

    Returns ``(summary, samples_reduced)`` with the same charging
    contract: the second element is the number of numeric samples folded
    in.
    """
    pool = cols.pool
    up = cols.up_mask(heartbeat_window)
    info = SummaryInfo()
    info.hosts_up = int(np.count_nonzero(up))
    info.hosts_down = cols.host_count - info.hosts_up

    mask = cols.valid & up[cols.row_host]
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return info, 0
    nids = cols.name_ids[rows]
    vals = cols.values[rows]

    size = pool.size
    sums = np.zeros(size, dtype=np.float64)
    np.add.at(sums, nids, vals)
    nums = np.bincount(nids, minlength=size)
    first = np.full(size, _NO_ROW, dtype=np.int64)
    np.minimum.at(first, nids, rows)

    # Sign-of-zero parity: the scalar fold starts from the first value
    # itself, so a metric whose every contribution is -0.0 sums to -0.0;
    # the scatter-add starts from +0.0 and loses the sign.  (Any other
    # zero total -- cancellation, mixed-sign zeros -- is +0.0 both ways.)
    zeros = (vals == 0.0) & np.signbit(vals)
    if zeros.any():
        negz = np.bincount(nids[zeros], minlength=size)
        all_negz = (nums > 0) & (negz == nums)
        sums[all_negz] = -0.0

    # UNITS is the first *non-empty* value in document order (the scalar
    # path backfills ``existing.units = existing.units or ms.units``).
    units_final = np.full(size, pool.empty_id, dtype=np.int64)
    nonempty = cols.units_ids[rows] != pool.empty_id
    if nonempty.any():
        ufirst = np.full(size, _NO_ROW, dtype=np.int64)
        np.minimum.at(ufirst, nids[nonempty], rows[nonempty])
        seen = ufirst != _NO_ROW
        units_final[seen] = cols.units_ids[ufirst[seen]]

    active = np.flatnonzero(nums > 0)
    active = active[np.argsort(first[active], kind="stable")]
    strings = pool.strings
    type_ids = cols.type_ids
    slope_ids = cols.slope_ids
    metrics = info.metrics
    for nid in active:
        r = first[nid]
        metrics[strings[nid]] = MetricSummary(
            name=strings[nid],
            total=float(sums[nid]),
            num=int(nums[nid]),
            mtype=pool.mtype_at(int(type_ids[r])),
            units=strings[units_final[nid]],
            slope=pool.slope_at(int(slope_ids[r])),
        )
    return info, int(rows.size)


@dataclass(slots=True)
class _HostState:
    """One host's live share of the running summary (columnar form)."""

    up: bool
    #: accumulator slot per contributing metric, document order
    slots: np.ndarray
    values: np.ndarray
    name_ids: np.ndarray
    type_ids: np.ndarray
    units_ids: np.ndarray
    slope_ids: np.ndarray

    def count(self) -> int:
        # name_ids, not slots: a fresh state's slots are only resolved
        # once _add_host runs, but its contribution size is known
        return len(self.name_ids)


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _empty_host_state(up: bool) -> _HostState:
    return _HostState(
        up=up,
        slots=_EMPTY_I64,
        values=_EMPTY_F64,
        name_ids=_EMPTY_I32,
        type_ids=_EMPTY_I32,
        units_ids=_EMPTY_I32,
        slope_ids=_EMPTY_I32,
    )


class ColumnarSummaryTracker:
    """Running summary over columnar polls; mirrors the scalar tracker.

    Accumulator state is a set of parallel *slot* arrays (Neumaier sum
    and compensation, exposed total, NUM, metadata ids); a slot is
    allocated when a metric gains its first reporter and freed when its
    reporter count drains to zero, exactly like the scalar tracker drops
    a drained accumulator.  ``_order`` mirrors the scalar running dict's
    insertion order so the serialized METRICS sequence is identical --
    including the reorder when a sole-reporter metric drains and is
    immediately re-added at the end.

    When consecutive polls share a layout (same hosts, same metric rows,
    same liveness -- the overwhelmingly common case), changed hosts are
    found with one vectorized value comparison and folded in as one
    batch (:meth:`_update_batched`), or one host at a time where the
    batch cannot reproduce the scalar fold; otherwise a per-host slow
    path reproduces the scalar comparison, down to its key-*set*
    (order-insensitive) semantics.
    """

    def __init__(self, heartbeat_window: float = 80.0) -> None:
        self.heartbeat_window = heartbeat_window
        self._pool: Optional[InternPool] = None
        self._hosts: Dict[str, _HostState] = {}
        self._hosts_up = 0
        self._hosts_down = 0
        # slot arrays (capacity-doubled)
        self._cap = 0
        self._size = 0
        self._sum = _EMPTY_F64
        self._comp = _EMPTY_F64
        self._tot = _EMPTY_F64  # exposed total: first value, then sum+comp
        self._num = _EMPTY_I64
        self._tid = _EMPTY_I32
        self._uid = _EMPTY_I32
        self._sid = _EMPTY_I32
        self._free: List[int] = []
        #: name id -> slot (dense array over the intern pool), -1 absent
        self._slot_of_nid = _EMPTY_I64
        #: name id -> None, in running-dict insertion order
        self._order: Dict[int, None] = {}
        self._prev: Optional[ColumnarCluster] = None
        self._prev_up: Optional[np.ndarray] = None
        #: diagnostic: how many times the drain-to-zero rebuild fired
        self.rebuilds = 0

    # -- slot management ---------------------------------------------------

    def _grow(self, needed: int) -> None:
        cap = max(64, self._cap)
        while cap < needed:
            cap *= 2
        if cap == self._cap:
            return
        for name in ("_sum", "_comp", "_tot"):
            arr = np.zeros(cap, dtype=np.float64)
            arr[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, arr)
        num = np.zeros(cap, dtype=np.int64)
        num[: self._size] = self._num[: self._size]
        self._num = num
        for name in ("_tid", "_uid", "_sid"):
            arr = np.zeros(cap, dtype=np.int32)
            arr[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, arr)
        self._cap = cap

    def _alloc(self, k: int) -> np.ndarray:
        slots = np.empty(k, dtype=np.int64)
        reuse = min(k, len(self._free))
        for i in range(reuse):
            slots[i] = self._free.pop()
        fresh = k - reuse
        if fresh:
            self._grow(self._size + fresh)
            slots[reuse:] = np.arange(
                self._size, self._size + fresh, dtype=np.int64
            )
            self._size += fresh
        return slots

    def _sync_pool(self, pool: InternPool) -> None:
        if self._pool is None:
            self._pool = pool
        elif self._pool is not pool:
            raise ValueError("tracker is bound to a different intern pool")
        if len(self._slot_of_nid) < pool.size:
            table = np.full(max(64, 2 * pool.size), -1, dtype=np.int64)
            table[: len(self._slot_of_nid)] = self._slot_of_nid
            self._slot_of_nid = table

    def _add_distinct(self, slots: np.ndarray, values: np.ndarray) -> None:
        """One compensated add of ``values[i]`` into ``slots[i]``; the
        slots are distinct (one host reports a metric once)."""
        s = self._sum[slots]
        t = s + values
        self._comp[slots] += np.where(
            np.abs(s) >= np.abs(values), (s - t) + values, (values - t) + s
        )
        self._sum[slots] = t
        self._tot[slots] = t + self._comp[slots]

    def _accumulate(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Compensated-add ``values[i]`` into ``slots[i]``, in order.

        Bit-identical to :meth:`_add_distinct` one value at a time,
        repeated slots included: each slot's adds are laid down one
        column of a matrix whose row 0 holds the running sums, and
        ``np.add.accumulate`` replays them strictly in order.  Padding
        is -0.0, the exact additive identity (it keeps the sign of a
        zero, too).
        """
        uniq, col = np.unique(slots, return_inverse=True)
        order = np.argsort(col, kind="stable")
        grouped = col[order]
        step = np.empty_like(col)
        step[order] = np.arange(len(col)) - np.searchsorted(grouped, grouped)
        seq = np.full((int(step.max()) + 2, len(uniq)), -0.0)
        seq[0] = self._sum[uniq]
        seq[step + 1, col] = values
        sums = np.add.accumulate(seq, axis=0)
        s, t, v = sums[:-1], sums[1:], seq[1:]
        with np.errstate(invalid="ignore"):
            err = np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
        pad = np.ones(err.shape, dtype=bool)
        pad[step, col] = False
        err[pad] = -0.0
        comp = np.add.accumulate(np.vstack([self._comp[uniq], err]), axis=0)
        self._sum[uniq] = sums[-1]
        self._comp[uniq] = comp[-1]
        self._tot[uniq] = sums[-1] + comp[-1]

    # -- per-host add/subtract (each mirrors one scalar loop) --------------

    def _subtract_host(self, st: _HostState) -> int:
        if st.up:
            self._hosts_up -= 1
        else:
            self._hosts_down -= 1
        slots = st.slots
        if slots.size == 0:
            return 0
        self._num[slots] -= 1
        drained = self._num[slots] == 0
        live = slots[~drained]
        if live.size:
            self._add_distinct(live, -st.values[~drained])
        if drained.any():
            # last reporter left: drop the reduction and free its slot
            # (an eager re-fold would simply not produce the metric)
            dn = st.name_ids[drained]
            order = self._order
            for nid in dn:
                del order[int(nid)]
            self._slot_of_nid[dn] = -1
            self._free.extend(int(s) for s in slots[drained])
        return int(slots.size)

    def _add_host(self, st: _HostState) -> int:
        if st.up:
            self._hosts_up += 1
        else:
            self._hosts_down += 1
        nids = st.name_ids
        if nids.size == 0:
            return 0
        slots = self._slot_of_nid[nids]
        missing = slots < 0
        if missing.any():
            new_nids = nids[missing]
            new_slots = self._alloc(int(missing.sum()))
            slots[missing] = new_slots
            self._slot_of_nid[new_nids] = new_slots
            v = st.values[missing]
            self._sum[new_slots] = v
            self._comp[new_slots] = 0.0
            self._tot[new_slots] = v  # first value verbatim, like ms.copy()
            self._num[new_slots] = 1
            self._tid[new_slots] = st.type_ids[missing]
            self._uid[new_slots] = st.units_ids[missing]
            self._sid[new_slots] = st.slope_ids[missing]
            order = self._order
            for nid in new_nids:  # document order == scalar insert order
                order[int(nid)] = None
        existing = ~missing
        if existing.any():
            ls = slots[existing]
            self._add_distinct(ls, st.values[existing])
            self._num[ls] += 1
            u = self._uid[ls]
            backfill = u == self._pool.empty_id
            if backfill.any():
                u[backfill] = st.units_ids[existing][backfill]
                self._uid[ls] = u
        st.slots = slots
        return int(nids.size)

    # -- contribution extraction and comparison ----------------------------

    def _fresh_state(self, cols: ColumnarCluster, h: int, up: bool) -> _HostState:
        if not up:
            return _empty_host_state(False)
        r0 = int(cols.host_row_start[h])
        r1 = int(cols.host_row_start[h + 1])
        sel = np.flatnonzero(cols.valid[r0:r1]) + r0
        if sel.size == 0:
            return _empty_host_state(True)
        return _HostState(
            up=True,
            slots=_EMPTY_I64,  # resolved by _add_host
            values=cols.values[sel].copy(),
            name_ids=cols.name_ids[sel].copy(),
            type_ids=cols.type_ids[sel].copy(),
            units_ids=cols.units_ids[sel].copy(),
            slope_ids=cols.slope_ids[sel].copy(),
        )

    @staticmethod
    def _states_equal(a: _HostState, b: _HostState) -> bool:
        """Mirror of ``_contributions_equal`` (key sets, then tuples)."""
        if a.up != b.up:
            return False
        if a.count() != b.count():
            return False
        if np.array_equal(a.name_ids, b.name_ids):
            # common case: same metrics in the same order
            return (
                np.array_equal(a.values, b.values)  # NaN -> not equal
                and np.array_equal(a.type_ids, b.type_ids)
                and np.array_equal(a.units_ids, b.units_ids)
                and np.array_equal(a.slope_ids, b.slope_ids)
            )
        # permuted order: the scalar comparison is key-SET based
        index = {int(n): i for i, n in enumerate(a.name_ids)}
        for j, nid in enumerate(b.name_ids):
            i = index.pop(int(nid), None)
            if i is None:
                return False
            if (
                a.values[i] != b.values[j]  # NaN compares unequal: changed
                or a.type_ids[i] != b.type_ids[j]
                or a.units_ids[i] != b.units_ids[j]
                or a.slope_ids[i] != b.slope_ids[j]
            ):
                return False
        return not index

    # -- the public update -------------------------------------------------

    def update(self, cols: ColumnarCluster) -> Tuple[SummaryInfo, int]:
        """Fold a fresh columnar poll into the running summary.

        Same contract as the scalar tracker: returns ``(summary, ops)``
        where ``ops`` counts only the samples of hosts that actually
        changed (the CPU charge), and the summary is an independent
        clone.
        """
        self._sync_pool(cols.pool)
        up = cols.up_mask(self.heartbeat_window)
        ops = 0
        had = bool(self._hosts)

        prev = self._prev
        if (
            prev is not None
            and cols.same_layout(prev)
            and self._prev_up is not None
            and np.array_equal(up, self._prev_up)
        ):
            # fast path: identical structure and liveness -- changed
            # hosts fall out of one vectorized value comparison
            mask = cols.valid & up[cols.row_host]
            diff = mask & (cols.values != prev.values)  # NaN: changed
            if diff.any():
                changed = np.unique(cols.row_host[diff])
                batched = self._update_batched(cols, changed)
                if batched is not None:
                    ops = batched
                else:
                    for h in changed:  # ascending == document order
                        name = cols.host_names[h]
                        ops += self._subtract_host(self._hosts[name])
                        fresh = self._fresh_state(cols, int(h), True)
                        ops += self._add_host(fresh) + 1
                        self._hosts[name] = fresh
        else:
            # removed hosts: subtract their stale contributions
            index = cols.host_index
            for name in list(self._hosts):
                if name not in index:
                    ops += self._subtract_host(self._hosts.pop(name)) + 1
            # changed or new hosts, in document order
            for h, name in enumerate(cols.host_names):
                fresh = self._fresh_state(cols, h, bool(up[h]))
                previous = self._hosts.get(name)
                if previous is not None and self._states_equal(
                    previous, fresh
                ):
                    continue  # untouched host: zero summarization work
                if previous is not None:
                    ops += self._subtract_host(previous)
                ops += self._add_host(fresh) + 1
                self._hosts[name] = fresh

        if had and not self._hosts:
            # contribution count drained to zero: rebuild exactly
            self._reset_accumulators()
            self.rebuilds += 1

        self._prev = cols
        self._prev_up = up
        return self._snapshot(), ops

    def _update_batched(
        self, cols: ColumnarCluster, changed: np.ndarray
    ) -> Optional[int]:
        """Fold the changed hosts of a same-layout poll as one batch.

        The per-host fold's adds (host by host: old values out, new
        values in) run as one :meth:`_accumulate`.  Returns the op
        count, or None, having changed nothing, when the batch cannot
        reproduce that fold: a changed host is some metric's sole
        reporter (the metric drains and re-enters at the end of the
        order), holds its metrics in another order than the poll's, or
        the adds are too ragged to lay out as one dense matrix.
        """
        old = [self._hosts[cols.host_names[h]] for h in changed.tolist()]
        picked = np.zeros(cols.host_count, dtype=bool)
        picked[changed] = True
        rows = np.flatnonzero(cols.valid & picked[cols.row_host])
        counts = np.bincount(cols.row_host[rows], minlength=cols.host_count)
        counts = counts[changed]
        slots = np.concatenate([st.slots for st in old])
        per_slot = np.bincount(slots)
        if (
            [st.count() for st in old] != counts.tolist()
            or not np.array_equal(
                np.concatenate([st.name_ids for st in old]),
                cols.name_ids[rows],
            )
            or (self._num[slots] == 1).any()
            or per_slot.max() * np.count_nonzero(per_slot)
            > 4 * len(rows) + 2048
        ):
            return None
        # interleave per host: its old values out, then its new values in
        n = len(rows)
        at = np.arange(n) + np.repeat(np.cumsum(counts) - counts, counts)
        back = at + np.repeat(counts, counts)
        seq_slots = np.empty(2 * n, dtype=slots.dtype)
        seq_slots[at] = seq_slots[back] = slots
        values = cols.values[rows]
        seq_values = np.empty(2 * n)
        seq_values[at] = -np.concatenate([st.values for st in old])
        seq_values[back] = values
        # NUM is unchanged and so is every UNITS id (same layout), so
        # there is nothing to backfill
        self._accumulate(seq_slots, seq_values)
        ends = np.cumsum(counts).tolist()
        for st, a, b in zip(old, [0] + ends, ends):
            st.values = values[a:b]
        return 2 * n + len(changed)

    def _snapshot(self) -> SummaryInfo:
        pool = self._pool
        info = SummaryInfo(
            hosts_up=self._hosts_up, hosts_down=self._hosts_down
        )
        if pool is None:
            return info
        strings = pool.strings
        metrics = info.metrics
        table = self._slot_of_nid
        for nid in self._order:
            slot = int(table[nid])
            metrics[strings[nid]] = MetricSummary(
                name=strings[nid],
                total=float(self._tot[slot]),
                num=int(self._num[slot]),
                mtype=pool.mtype_at(int(self._tid[slot])),
                units=strings[int(self._uid[slot])],
                slope=pool.slope_at(int(self._sid[slot])),
            )
        return info

    def _reset_accumulators(self) -> None:
        self._hosts_up = 0
        self._hosts_down = 0
        self._size = 0
        self._free.clear()
        self._order.clear()
        if len(self._slot_of_nid):
            self._slot_of_nid[:] = -1
