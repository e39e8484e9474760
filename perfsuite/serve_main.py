"""Launch ``repro serve`` as the serve-mixed program process.

``python3 perfsuite/serve_main.py [--layers-out F] [--plant P] -- <repro
argv>`` runs ``repro.cli.main(<repro argv>)`` unchanged. With
``--layers-out``, the first SIGUSR1 installs the layer timers (after the
cache has been warmed, so warm-up never counts), writes ``F.armed`` as
an acknowledgement, and the timers' per-layer metrics are written to
``F`` once the server has drained and returned.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", default=None)
    parser.add_argument("--plant", default=None, choices=layers.PLANTS)
    parser.add_argument("repro_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_argv = [a for a in args.repro_argv if a != "--"]

    from repro.cli import main as repro_main

    layers.plant(args.plant)
    recorder = layers.LayerRecorder()
    if args.layers_out:
        out = Path(args.layers_out)

        def arm(_signum, _frame) -> None:
            if not recorder.installed:
                recorder.install()
            out.with_name(out.name + ".armed").write_text("armed\n")

        signal.signal(signal.SIGUSR1, arm)
    code = repro_main(repro_argv)
    if args.layers_out:
        snap = recorder.snapshot()
        Path(args.layers_out).write_text(
            json.dumps({"metrics": layers.layer_metrics(snap), "snapshot": snap})
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
