"""One workload's set-up in a fresh interpreter, for the setup_s metric.

Usage: python3 perfbench/probe_setup.py <workload>

It imports what the workload imports and builds what the workload builds
before its first timed op, then exits; the parent times it from spawn to
exit.  It generates no inputs, so input generation is not counted.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

workload = sys.argv[1]
if workload == "codec-bulk":
    from params import BULK_SCALE, SCHEMES
    import amld3

    for label, base in SCHEMES:
        amld3.instantiate_scheme(amld3.TEMPLATES[label],
                                 [b * BULK_SCALE for b in base])
elif workload == "analysis":
    import amld3

    amld3.enumerate_orderings()
elif workload == "cli-calls":
    from amld3 import cli

    cli.build_parser()
else:
    sys.exit(f"unknown workload {workload!r}")
