#!/usr/bin/env python3
"""Record the sha256 digests of the files each workload writes for the default
seed into perfbench/digests.json, which `run.py` then checks every run against
(`output_drift`).  Run it only on the commit whose output is the reference:

    python3 perfbench/record_digests.py
"""

import json
import shutil
import sys

import run
import workloads


def main():
    run.import_program()
    runner = run.Runner()
    recorded = {}
    workdir = run.OUT / "record"
    try:
        for name in workloads.WORKLOADS:
            calls = workloads.build(name, workloads.DEFAULT_SEED, workdir / name)
            _, _, facts = runner.run_pass(calls)
            digests = {c.fixture: f["digests"] for c, f in zip(calls, facts) if "digests" in f}
            if digests:
                recorded[name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.failed:
        print("error: a call failed; nothing recorded", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
