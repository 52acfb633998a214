"""Run one ``repro`` command in a child process, traced.

    PERFBENCH_TRACE_DIR=<dir> python perfbench/launch.py <repro arguments>

Times the import of ``repro.cli`` as the ``import`` span, wraps every
traced layer (:func:`perfbench.tracing.install`), calls
``repro.cli.main`` inside the ``cli.main`` span and writes this
process's spans to ``<dir>`` when the command returns.  Pool workers the command forks trace themselves.
The untraced benchmark runs ``python -m repro`` instead.
"""

import os
import pathlib
import sys

sys.path[0] = str(pathlib.Path(__file__).resolve().parents[1])

from perfbench import tracing  # noqa: E402


def main(argv):
    started = tracing.CLOCK()
    import repro.cli

    imported = tracing.CLOCK()
    recorder = tracing.install(os.environ[tracing.TRACE_ENV])
    recorder.add("import", started, imported)
    span = recorder.start("cli.main")
    try:
        return repro.cli.main(argv)
    finally:
        recorder.end(span)
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
