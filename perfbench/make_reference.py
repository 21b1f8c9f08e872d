#!/usr/bin/env python3
"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: for every workload and size, the
truncated MSE, selected models and (for fit-large) 512-point grid values
of fits on inputs drawn from ``workloads.REFERENCE_SEED``. Re-recording
changes what the benchmark accepts as correct, so do it only for a
change that is meant to alter the estimates, and say so.
"""

import json

import run


def main() -> None:
    run.prepare()
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for size in ("full", "tiny"):
            workload = cls(seed=0, tiny=size == "tiny")
            try:
                reference[name][size] = workload.reference_records()
            finally:
                workload.close()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
