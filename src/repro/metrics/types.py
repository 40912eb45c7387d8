"""Typed metric values as they appear in the Ganglia XML.

The wire format carries every value as a string plus a ``TYPE``
attribute; this module defines the type vocabulary and the conversions
both endpoints use.  Only numeric types can be summarized -- "a drawback
of both designs is that only numeric metrics can be reliably summarized"
(§2.2) -- so :meth:`MetricType.is_numeric` is load-bearing for the
summarizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

Value = Union[int, float, str]


class MetricType(enum.Enum):
    """Ganglia metric value types (gmond 2.5 vocabulary)."""

    STRING = "string"
    INT8 = "int8"
    UINT8 = "uint8"
    INT16 = "int16"
    UINT16 = "uint16"
    INT32 = "int32"
    UINT32 = "uint32"
    FLOAT = "float"
    DOUBLE = "double"
    #: plain TYPE="int" appears in the paper's XML example; accept it.
    INT = "int"

    @property
    def is_numeric(self) -> bool:
        return self is not MetricType.STRING

    @property
    def is_integral(self) -> bool:
        return self.is_numeric and self not in (MetricType.FLOAT, MetricType.DOUBLE)

    @classmethod
    def parse(cls, text: str) -> "MetricType":
        """Parse a TYPE attribute value into a MetricType."""
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown metric TYPE {text!r}") from None


_INT_BOUNDS = {
    MetricType.INT8: (-(2**7), 2**7 - 1),
    MetricType.UINT8: (0, 2**8 - 1),
    MetricType.INT16: (-(2**15), 2**15 - 1),
    MetricType.UINT16: (0, 2**16 - 1),
    MetricType.INT32: (-(2**31), 2**31 - 1),
    MetricType.UINT32: (0, 2**32 - 1),
    MetricType.INT: (-(2**31), 2**31 - 1),
}


def coerce_value(raw: str, mtype: MetricType) -> Value:
    """Convert a wire string to a Python value, clamping integral ranges.

    Real gmond clamps rather than errors on out-of-range counters (they
    wrap in C); clamping keeps the simulated pipeline total -- a parse
    never fails because a counter grew large.
    """
    if mtype is MetricType.STRING:
        return raw
    if mtype.is_integral:
        try:
            value = int(float(raw))
        except ValueError:
            raise ValueError(f"bad integral value {raw!r} for {mtype.value}") from None
        lo, hi = _INT_BOUNDS[mtype]
        return min(max(value, lo), hi)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"bad float value {raw!r} for {mtype.value}") from None


def format_value(value: Value, mtype: MetricType) -> str:
    """Render a Python value the way gmond prints it into XML."""
    if mtype is MetricType.STRING:
        return str(value)
    if mtype.is_integral:
        return str(int(value))
    return format_float(value)


def format_float(value: float) -> str:
    """Render a FLOAT/DOUBLE value the way gmond prints it into XML."""
    # Gmond prints floats with %.2f-ish precision; we keep more digits so
    # summaries round-trip, but strip trailing zeros for compactness.
    text = f"{float(value):.4f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


@dataclass(slots=True)
class MetricSample:
    """One metric observation as held in monitor state.

    ``tn`` is seconds since the value was last reported; ``tmax`` the
    maximum expected reporting interval; ``dmax`` the soft-state lifetime
    (0 = never expire).  These mirror gmond's TN/TMAX/DMAX attributes and
    drive the soft-state expiry in :mod:`repro.gmond.state`.
    """

    name: str
    value: Value
    mtype: MetricType
    units: str = ""
    source: str = "gmond"
    tmax: float = 60.0
    dmax: float = 0.0
    reported_at: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def is_numeric(self) -> bool:
        return self.mtype.is_numeric

    def numeric(self) -> float:
        """The value as float; TypeError for string metrics."""
        if not self.is_numeric:
            raise TypeError(f"metric {self.name!r} is a string metric")
        return float(self.value)

    def tn(self, now: float) -> float:
        """Seconds since this sample was (re)reported."""
        return max(0.0, now - self.reported_at)

    def expired(self, now: float) -> bool:
        """Soft-state expiry: dmax seconds without a refresh."""
        return self.dmax > 0 and self.tn(now) > self.dmax

    def wire_value(self) -> str:
        """The value rendered the way it travels in XML."""
        return format_value(self.value, self.mtype)

    def copy(self) -> "MetricSample":
        """Deep-enough copy (extra dict duplicated)."""
        return MetricSample(
            name=self.name,
            value=self.value,
            mtype=self.mtype,
            units=self.units,
            source=self.source,
            tmax=self.tmax,
            dmax=self.dmax,
            reported_at=self.reported_at,
            extra=dict(self.extra),
        )
