"""What a tape keeps alive: op outputs plus the arrays records' closures hold.

Every array is charged to the buffer that owns its memory, once however
many views of it the tape holds. Views made by ``sliding_window_view``
(and ``as_strided``) sit on a wrapper object whose ``base`` is the source
array; :func:`owner` follows that link too. An output that
``qanet.tensor.release`` dropped costs nothing: reading its ``.data`` would
rebuild a buffer the tape does not keep, so :func:`kept_data` reads the
``_data`` slot behind that property, which ``release`` sets to None.
"""
from __future__ import annotations

import types

import numpy as np


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while True:
        base = a.base
        if base is not None and not isinstance(base, np.ndarray):
            base = getattr(base, "base", None)  # the as_strided wrapper
        if not isinstance(base, np.ndarray):
            return a
        a = base


def kept_data(t) -> np.ndarray | None:
    """``t``'s buffer, or None when it was released (without rebuilding it)."""
    return t._data


def closure_arrays(fn) -> list[np.ndarray]:
    """Arrays a function's closure holds, through nested functions, tuples and lists."""
    found, pending, seen = [], [fn], set()
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif isinstance(item, types.FunctionType):
            pending.extend(cell.cell_contents for cell in item.__closure__ or ())
    return found


def records(root):
    """``(output tensor, TapeOp)`` for every op reachable from ``root``."""
    seen, pending = set(), [root]
    while pending:
        t = pending.pop()
        if t.op is None or id(t.op) in seen:
            continue
        seen.add(id(t.op))
        yield t, t.op
        pending.extend(t.op.inputs)


def held_arrays(op) -> list[np.ndarray]:
    """Arrays a record's backward rule and rebuild rule hold."""
    return closure_arrays((op.backward_fn, op.rebuild))


def _kept_buffers(root):
    """``(op name, owning buffer)`` for each buffer the tape keeps, once, with
    the first record that reaches it in :func:`records`' order from ``root``."""
    seen = set()
    for out, op in records(root):
        data = kept_data(out)
        for a in ([] if data is None else [data]) + held_arrays(op):
            buf = owner(a)
            if id(buf) not in seen:
                seen.add(id(buf))
                yield op.name, buf


def tape_bytes(root) -> int:
    """Bytes of every buffer that kept op outputs or record closures reach."""
    return sum(buf.nbytes for _, buf in _kept_buffers(root))


def bytes_by_op(root) -> dict[str, int]:
    """:func:`tape_bytes` split by op name, largest first: each buffer is
    charged to the first op that reaches it from ``root``, so the rows sum
    to the total, but a buffer two ops share shows under one of them only."""
    rows = {}
    for name, buf in _kept_buffers(root):
        rows[name] = rows.get(name, 0) + buf.nbytes
    return dict(sorted(rows.items(), key=lambda row: -row[1]))
