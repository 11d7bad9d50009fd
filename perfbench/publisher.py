"""Open-loop publisher for the tail phase of the catchup_tail workload.

Renames pre-written changelog segments from a staging dir into the
root log at fixed times, whatever the consumers are doing, and writes
the actual publish time of each segment as JSON when done. Running as
its own process keeps its schedule independent of the tailing client.

    python3 publisher.py SRC DST T0 INTERVAL_S OUT_JSON

T0 is a time.monotonic() value (the clock is system-wide on Linux);
segment i is due at T0 + i * INTERVAL_S.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(src: str, dst: str, t0: float, interval: float, out: str) -> None:
    names = sorted(os.listdir(src))
    actual = []
    for i, name in enumerate(names):
        due = t0 + i * interval
        now = time.monotonic()
        if due > now:
            time.sleep(due - now)
        os.rename(os.path.join(src, name), os.path.join(dst, name))
        actual.append(time.monotonic())
    with open(out + ".tmp", "w") as f:
        json.dump(actual, f)
    os.replace(out + ".tmp", out)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), float(sys.argv[4]),
         sys.argv[5])
