"""How fast the shared machine runs right now, from a fixed kernel.

A shared machine can run 20-50% slower for tens of seconds at a time
while its neighbours are busy, and every wall time moves with it.
:class:`SpeedProbe` times a small fixed kernel between units of
measured work.  The kernel shares no code with the program under test
(string scanning, float parsing and formatting, a numpy sort -- the
kinds of work the daemons do), so a change to the program cannot move
it, while a slow phase of the machine moves the kernel and the measured
work alike.  Times are scaled by ``REFERENCE_MS / kernel time``: what
they would read on a machine where the kernel takes
:data:`REFERENCE_MS`.  Each unit of work is scaled by the kernel times
taken around it (:func:`local_scales`), so a phase that starts or ends
inside an episode scales only the work it slowed.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: kernel time (ms) on the reference machine scaled times refer to: about
#: what one core of a current x86 server takes when nothing competes
REFERENCE_MS = 0.33

_DOC = "".join(
    f'<METRIC NAME="m{i}" VAL="{i * 0.37:.3f}" TN="{i % 60}"/>\n'
    for i in range(300)
)
_VALUES = np.arange(4096, dtype=float)


def kernel() -> float:
    """A fixed third of a millisecond of interpreter and numpy work."""
    total = 0.0
    pos = 0
    while True:
        start = _DOC.find('VAL="', pos)
        if start < 0:
            break
        end = _DOC.find('"', start + 5)
        total += float(_DOC[start + 5:end])
        pos = end
    text = ",".join(f"{v:.3f}" for v in _VALUES[:300].tolist())
    return total + len(text) + float(np.sort(_VALUES * 1.0001)[::7].sum())


class SpeedProbe:
    """Kernel timings taken between units of measured work."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def sample(self) -> None:
        # an untimed first pass brings the kernel's code and data back
        # into cache, so the timed pass does not depend on how much cache
        # the measured work before it disturbed
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.samples_ms.append((time.perf_counter() - t0) * 1000.0)


#: kernel samples on each side of a unit of work that set its scale:
#: five samples span about five simulated seconds of an episode
WINDOW = 2


def local_scales(samples_ms: List[float]) -> List[float]:
    """Scale of each unit of work, from the samples around it.

    Unit ``i`` is the work done before sample ``i`` and after sample
    ``i - 1``; its scale comes from the mean of samples ``i - WINDOW``
    to ``i + WINDOW``.
    """
    return [
        scale(statistics.fmean(samples_ms[max(0, i - WINDOW): i + WINDOW + 1]))
        for i in range(len(samples_ms))
    ]


def scale(kernel_ms: float) -> float:
    """Factor turning a wall time taken while the kernel took ``kernel_ms``
    into reference-machine time."""
    return REFERENCE_MS / kernel_ms
