"""Cooperative resource budgets for the search engines.

A :class:`Budget` carries optional caps on enumeration work and a wall-clock
deadline.  Engines call :meth:`Budget.charge` from their hot loops; hitting a
cap raises :class:`~coxorbits.errors.CapExceeded` immediately, so a capped
computation never returns a partial answer.  ``None`` means unlimited, and
the default budget is fully unlimited, keeping results reproducible unless a
caller opts into limits.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import CapExceeded


@dataclass
class Budget:
    """Caps on search work.  Counters accumulate per instance.

    ``max_tuples`` is the one work limit, applied to each counter on its
    own: ``max_tuples`` counts branch edges explored while enumerating
    reflection tuples, ``max_states`` counts the factorizations that orbits
    cover (a partition charges each orbit's size, an orbit walk each state
    it visits), and :class:`CapExceeded` names the counter that ran over.
    ``max_mem_mb`` converts to a cap on the total tracked units through a
    coarse bytes-per-unit estimate, deliberately avoiding live memory
    sampling so that capped runs stay deterministic.
    ``timeout_s`` is wall-clock, measured from construction.
    """

    max_tuples: int | None = None
    max_mem_mb: float | None = None
    timeout_s: float | None = None
    spent: dict[str, int] = field(default_factory=dict)
    _t0: float = field(default_factory=time.monotonic)

    #: rough bytes per tracked unit (a tuple or an orbit state),
    #: used to convert the memory cap into a deterministic unit cap
    BYTES_PER_UNIT = 200

    def charge(self, cap: str, amount: int = 1) -> None:
        used = self.spent.get(cap, 0) + amount
        self.spent[cap] = used
        if self.max_tuples is not None and used > self.max_tuples:
            raise CapExceeded(cap, self.max_tuples, needed=used)
        if self.max_mem_mb is not None:
            total = sum(self.spent.values())
            if total * self.BYTES_PER_UNIT > self.max_mem_mb * 1_000_000:
                raise CapExceeded("max_mem_mb", self.max_mem_mb, needed=total)
        if self.timeout_s is not None and time.monotonic() - self._t0 > self.timeout_s:
            raise CapExceeded("timeout_s", self.timeout_s)
