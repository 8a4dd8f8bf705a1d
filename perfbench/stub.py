"""Local HTTP translator for the augment_http workload.

Speaks the JSON round-trip protocol of ``qanet.augmentation.HttpTranslator``
(POST {base}/translate with {"texts", "beam", "direction"}) for any pivot
language named by the first path segment, e.g. ``/fr/translate``. Replies
are a pure function of the request, and every request takes a fixed service
time of ``STUB_SECONDS_PER_REQUEST + STUB_SECONDS_PER_TEXT * len(texts)``
(from ``fixtures.py``), so the client sees the same server whatever machine
load the rewrite itself meets.

GET /stats reports requests served, texts served and service seconds as
measured here. The first line on stdout is the port; the server exits when
its stdin closes, so it never outlives the process that started it.

    python3 perfbench/stub.py
"""
from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from fixtures import STUB_SECONDS_PER_REQUEST, STUB_SECONDS_PER_TEXT

_MARK = re.compile(r"<(\w+):(\d+)> (.*)", re.DOTALL)
# Per-language offsets, so that the two pivots rewrite different words.
_SHIFT = {"fr": 0, "de": 3}


def _rewrite_word(word: str, rule: int) -> str:
    core = word.rstrip(".,!?;:")
    tail = word[len(core):]
    if len(core) < 2 or rule > 1:
        return word
    # Rule 0 reverses the word, which defeats bigram realignment; rule 1
    # rotates it by one letter, which mostly survives it.
    new = core[::-1] if rule == 0 else core[1:] + core[0]
    if core[0].isupper():
        new = new.lower().capitalize()
    return new + tail


def rewrite(text: str, variant: int, language: str) -> str:
    """Deterministic paraphrase number ``variant`` of ``text``."""
    shift = _SHIFT.get(language, 5)
    words = text.split(" ")
    return " ".join(_rewrite_word(w, (3 * p + variant + shift) % 7)
                    for p, w in enumerate(words))


def translate(language: str, texts, beam: int, direction: str):
    if direction == "forward":
        return [[f"<{language}:{i}> {t}" for i in range(beam)] for t in texts]
    out = []
    for text in texts:
        m = _MARK.match(text)
        base = m.group(3) if m else text
        first = int(m.group(2)) * beam if m else 0
        out.append([rewrite(base, first + j, language) for j in range(beam)])
    return out


class StubServer(HTTPServer):
    def __init__(self, address):
        super().__init__(address, _Handler)
        self.stats = {"requests": 0, "texts": 0, "service_s": 0.0,
                      "rejected": 0}


class _Handler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, *args):
        pass

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        self._reply(200, self.server.stats)

    def do_POST(self):
        t0 = time.perf_counter()
        parts = self.path.strip("/").split("/")
        try:
            if len(parts) != 2 or parts[1] != "translate":
                raise ValueError(f"no endpoint {self.path}")
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            texts, beam, direction = body["texts"], int(body["beam"]), body["direction"]
            if direction not in ("forward", "back"):
                raise ValueError(f"unknown direction {direction!r}")
            reply = {"translations": translate(parts[0], texts, beam, direction)}
        except (KeyError, TypeError, ValueError) as err:
            self.server.stats["rejected"] += 1
            self._reply(400, {"error": str(err)})
            return
        due = t0 + STUB_SECONDS_PER_REQUEST + STUB_SECONDS_PER_TEXT * len(texts)
        while (left := due - time.perf_counter()) > 0:
            time.sleep(left)
        self._reply(200, reply)
        stats = self.server.stats
        stats["requests"] += 1
        stats["texts"] += len(texts)
        stats["service_s"] += time.perf_counter() - t0

    def _reply(self, status: int, payload) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def main() -> int:
    server = StubServer(("127.0.0.1", 0))

    def stop_when_parent_goes():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
