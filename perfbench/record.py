"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record.py [--workloads NAME,...]

Runs one untraced pass of each workload for each of the ``SEED_SLOTS`` seed
slots, ``JOBS`` passes at a time, and writes ``perfbench/references.json``.  The references belong to
the commit that defined the benchmark: re-record only when a change is meant
to alter syklab's outputs, and say so in that change.  A recorded output
must itself pass the checks that need no reference (no row error, eta <= 1,
every oracle check passing), or nothing is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import spawn
from workloads import REFERENCES, SEED_SLOTS, WORKLOADS, check, make_spec

JOBS = 2  # one pass per CPU of a 2-CPU machine


def record_one(name: str, slot: int):
    spec = make_spec(name, slot)
    record, error = spawn(spec, spec["workers"])
    if record is None:
        raise RuntimeError(f"{name} slot {slot}: {error}")
    return slot, record["outputs"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    references = {}
    if REFERENCES.is_file():
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for name in names:
            slots = {}
            for slot, outputs in pool.map(lambda s: record_one(name, s), range(SEED_SLOTS)):
                slots[str(slot)] = outputs
                _, failures = check(name, slot, outputs, {name: slots})
                if failures:
                    print(f"{name} slot {slot} fails its own checks: {failures}",
                          file=sys.stderr)
                    return 1
            references[name] = slots
            with open(REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(references, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
