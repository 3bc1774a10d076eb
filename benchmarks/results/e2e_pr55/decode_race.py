"""Race four threads' first ``from_wire`` of one ``UnknownKeyError``.

Run with ``PYTHONPATH=<tree>/src python3 decode_race.py [series] [trials]``.
Each trial reloads ``repro.smb.errors`` (what a fresh process decodes
with), sets the interpreter's switch interval to 1 µs and releases four
threads at once, each decoding the same ERROR payload.  A decode that
comes back as anything but ``UnknownKeyError`` has lost its type: a
client would skip its transparent re-attach.  Prints one line per series
(``trials`` × 4 decodes each).
"""

import importlib
import sys
import threading

import repro.smb.errors as errors

THREADS = 4
PAYLOAD = (
    b'UnknownKeyError:{"message": "unknown SMB key: 0xbeef", '
    b'"args": [48879]}'
)


def trial() -> int:
    """Decodes, of ``THREADS`` racing first ones, that lost their type."""
    module = importlib.reload(errors)
    gate = threading.Barrier(THREADS)
    names = []

    def decode() -> None:
        gate.wait()
        names.append(type(module.from_wire(PAYLOAD)).__name__)

    threads = [threading.Thread(target=decode) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(name != "UnknownKeyError" for name in names)


def main() -> None:
    series = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    sys.setswitchinterval(1e-6)
    for index in range(series):
        lost = sum(trial() for _ in range(trials))
        print(
            f"series {index}: {lost} of {trials * THREADS} first decodes "
            "lost their type"
        )


if __name__ == "__main__":
    main()
