"""Offline translator endpoints shared by the augmentation tests."""


class ScriptedTranslator:
    """Offline endpoint that replays a fixed (direction, text) -> list map.

    Texts absent from the script fall back to identity, which makes the
    default instance a pure identity translator.
    """

    def __init__(self, script: dict[tuple[str, str], list[str]] | None = None):
        self.script = dict(script or {})

    def translate(self, texts, beam, direction):
        out = []
        for text in texts:
            hits = self.script.get((direction, text), [text])
            out.append(list(hits[:beam]))
        return out
