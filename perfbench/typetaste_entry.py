"""Start ``typetaste`` the way its console script does, for one CLI query.

Usage: ``python3 perfbench/typetaste_entry.py <typetaste arguments>``

When ``PERFBENCH_TRACE`` names a file, the same wrappers as in the traced
parent are installed first, the import of ``typetaste.cli`` is recorded as
the ``cli.import`` span, and the spans are written to that file on exit.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from typetaste.cli import main as cli_main

        cli_main()
        return
    import tracing

    tracer = tracing.Tracer()
    try:
        with tracer.span("cli.import"):
            import typetaste.cli
        tracing.install(tracer)
        typetaste.cli.main()
    finally:
        tracer.dump(Path(trace_path))


if __name__ == "__main__":
    main()
