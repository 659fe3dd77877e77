"""An emulation of Python 3.12's builtin ``sum`` for any interpreter.

From Python 3.12 the builtin ``sum`` adds floats with Neumaier
compensation, so it rounds differently from a left-to-right fold.  A
payload that sums floats with the builtin therefore depends on the
interpreter's minor version; tests patch :func:`sum_py312` in (as a
module's ``sum``, or as ``builtins.sum``) to check 3.12 parity on an
older interpreter.
"""

import math


def sum_py312(iterable, start=0):
    """The builtin ``sum`` of Python 3.12+: once the running total is a
    float, items are added with Neumaier compensation, applied once at
    the end (when finite)."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if isinstance(total, float):
            break
    comp = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total
