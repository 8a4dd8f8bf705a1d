"""In-memory span tracing around calls into the program's public functions.

The tracer replaces a function by a timing wrapper in the namespace of the
module that calls it (``qanet.model.encoder_stack_forward``, not the
defining module), so calls made inside the program are seen too. Nothing
under ``src/`` changes. A name that no longer exists is recorded as
missing and left alone.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
that was open when it started and ``op`` names the operation it belongs
to: an int for a timed operation, or a string such as ``"setup:3"``.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the result holds for any well-formed span tree.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        cursor = lo
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children[i]):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


def tape_size(root, stop=()) -> tuple[int, int]:
    """Tape ops and bytes of op outputs reachable from ``root``.

    Walks ``Tensor.op`` -> ``TapeOp.inputs`` and does not pass through a
    tensor whose id is in ``stop`` (a layer's own input).
    """
    seen = set()
    ops = nbytes = 0
    pending = [root]
    while pending:
        t = pending.pop()
        if t.op is None or id(t) in seen or id(t) in stop:
            continue
        seen.add(id(t))
        ops += 1
        nbytes += t.data.nbytes
        pending.extend(t.op.inputs)
    return ops, nbytes


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = None
        self.enabled = True
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._walks: list[tuple] = []
        self._documents: list[int] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def operation(self, op, record: bool = True):
        """Root span of one operation; every span inside it shares ``op``.

        With ``record`` false the operation runs with every wrapper passing
        straight through to the program, and leaves no span or count.
        """
        if not record:
            self.enabled = False
            try:
                yield
            finally:
                self.enabled = True
            return
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def timed(self) -> bool:
        return isinstance(self.op, int)

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.timed():
            self.counts[key] += amount

    # -- wrapping ---------------------------------------------------------

    def _replace(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def wrap(self, module, attr, name, after=None) -> None:
        """Time every call of ``module.attr`` as span ``name``.

        ``name`` may be a function of the call's arguments. ``after`` is
        called with (args, result) once the span has closed.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                label = name(args) if callable(name) else name
                with self.span(label):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._replace(module, attr, make)

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- layer-specific hooks ----------------------------------------------

    def remember_tape(self, args, out) -> None:
        """Queue a walk from a layer's output back to its first input."""
        if self.timed() and getattr(out, "op", None) is not None:
            self._walks.append((out, id(args[0])))

    def walk_tapes(self, loss) -> None:
        """Count the tape of one operation; call after its span closed."""
        for out, stop in self._walks:
            _, nbytes = tape_size(out, {stop})
            self.counts["self_attn_bytes"] += nbytes
        self._walks.clear()
        if loss is not None:
            ops, nbytes = tape_size(loss)
            self.counts["tape_ops"] += ops
            self.counts["tape_bytes"] += nbytes

    def track_documents(self, module, attr) -> None:
        """Count documents whose answer sentence found no realignment."""
        def make(original):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                self._documents.append(0)
                try:
                    return original(*args, **kwargs)
                finally:
                    if self._documents.pop() == 0:
                        self.count("documents_fallback")
                    self.count("documents")
            return wrapper
        self._replace(module, attr, make)

    def realigned(self, args, result) -> None:
        self.count("align_calls")
        if result is not None:
            self.count("align_kept")
            if self._documents:
                self._documents[-1] += 1

    # -- results ------------------------------------------------------------

    def layer_seconds(self) -> tuple[dict, dict, dict]:
        """Self seconds per span name, for timed ops and for other phases.

        Returns (mean self seconds per recorded timed op by name, {phase
        label: {name: self seconds}}, {timed op: sum of the self seconds
        of its spans, the root's remainder included}).
        """
        own = self_times(self.spans)
        per_op = defaultdict(float)
        phases = defaultdict(lambda: defaultdict(float))
        op_sums = defaultdict(float)
        for span, t in zip(self.spans, own):
            op = span[OP]
            if isinstance(op, int):
                per_op[span[NAME]] += t
                op_sums[op] += t
            elif op is not None:
                phases[op][span[NAME]] += t
        n = max(len(op_sums), 1)
        return ({k: v / n for k, v in per_op.items()},
                {k: dict(v) for k, v in phases.items()}, dict(op_sums))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op"), span))) + "\n")


class TracedEndpoint:
    """A translator that records each ``translate`` call it forwards."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.sent: set = set()
        self.calls = 0  # every call, recorded or not

    def translate(self, texts, beam, direction):
        self.calls += 1
        if self.tracer.enabled:
            with self.tracer.span("augmentation.translate"):
                out = self.inner.translate(texts, beam, direction)
        else:
            out = self.inner.translate(texts, beam, direction)
        self.tracer.count("requests")
        self.tracer.count("texts", len(texts))
        for text in texts:
            key = (direction, beam, text)
            if key in self.sent:
                self.tracer.count("repeat_texts")
            self.sent.add(key)
        return out
