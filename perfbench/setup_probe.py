"""Prints the seconds this fresh process spends on ``import diffcech`` plus
building the gallery, the set-up a CLI user pays on every call."""

import time

t0 = time.perf_counter()
import diffcech  # noqa: E402
from diffcech import gallery  # noqa: E402

gallery.names()
print(repr(time.perf_counter() - t0))
