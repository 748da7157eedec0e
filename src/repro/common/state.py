"""Checkpoint state: one ``state()`` / ``restore(state)`` pair per component.

Every component that carries walk or hardware state across a checkpoint
(accelerators, walk buffers, flash hardware, caches, counters, the
query service's bookkeeping) subclasses :class:`Stateful` and names the
attributes a checkpoint carries once, in its own class body:

* ``STATE`` lists plain attributes.  ``state()`` copies them out and
  ``restore(state)`` copies them back in, both through :func:`copied`,
  so later events on the live component cannot reach back into a
  captured state, and one state can be restored more than once.
* ``PARTS`` lists attributes holding other components (a
  :class:`Stateful`, a list of them, or None), captured through their
  own ``state()`` and restored in place through their own ``restore``.

Components whose state has structure a field copy cannot express (walk
pools, pool slabs, the FTL's sparse plane tables, RNG streams) extend or
replace the two methods by hand under the same names.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["Stateful", "copied", "restore_into", "state_of"]

#: Container types :func:`copied` copies (``OrderedDict`` is a dict).
_CONTAINERS = (list, dict, set, deque, np.ndarray)


def copied(value):
    """``value`` with its top-level container copied (lists, sets,
    dicts, deques, arrays); anything else as is."""
    return value.copy() if isinstance(value, _CONTAINERS) else value


def state_of(part):
    """The state of a component, of each of a list of them, or None."""
    if part is None:
        return None
    if isinstance(part, list):
        return [p.state() for p in part]
    return part.state()


def restore_into(part, state) -> None:
    """Inverse of :func:`state_of`: restore ``part`` (or each of a list)
    in place."""
    if isinstance(part, list):
        for p, s in zip(part, state, strict=True):
            p.restore(s)
    elif part is not None:
        part.restore(state)


class Stateful:
    """A component whose checkpoint state is its ``STATE`` fields and
    ``PARTS`` components."""

    __slots__ = ()

    STATE: tuple[str, ...] = ()
    PARTS: tuple[str, ...] = ()

    def state(self) -> dict:
        out = {name: copied(getattr(self, name)) for name in self.STATE}
        for name in self.PARTS:
            out[name] = state_of(getattr(self, name))
        return out

    def restore(self, state: dict) -> None:
        for name in self.STATE:
            setattr(self, name, copied(state[name]))
        for name in self.PARTS:
            restore_into(getattr(self, name), state[name])
