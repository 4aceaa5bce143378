"""Run ``repro.cli.main(ARGV)`` with the layer wrappers installed.

Usage: ``python perfbench/trace_boot.py SPANS.json [--skip LAYER,...] -- ARGV...``

The untraced run is ``python -m repro ARGV``, which calls the same
function with the same arguments, so the two runs differ only by the
wrappers.  Spans are written to ``SPANS.json`` when ``main`` returns,
together with this process's window (bootstrap start to ``main``
return); a ``repro check`` process is one operation.
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, program_argv = argv[:split], argv[split + 1 :]
    spans = Path(options[0])
    skip = set()
    if len(options) == 3 and options[1] == "--skip":
        skip = set(options[2].split(","))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    layers = set(tracing.LAYERS) - skip
    if program_argv[0] != "serve":
        layers -= tracing.SERVICE_LAYERS
    recorder = tracing.Recorder()
    recorder.local.op = 1
    tracing.install(recorder, layers)
    from repro.cli import main as cli_main

    try:
        return cli_main(program_argv)
    finally:
        recorder.dump(spans, (T0, time.perf_counter()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
