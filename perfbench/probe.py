"""Set-up probe: import the package, build what a workload reuses, report.

Run as ``python3 perfbench/probe.py <workload>``.  It prints ``ready`` once
set-up is done; the caller times process start to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

if __name__ == "__main__":
    import gtrscodes  # noqa: F401  (the package import is part of set-up)
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup()
    print("ready", flush=True)
