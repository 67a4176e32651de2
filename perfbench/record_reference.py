#!/usr/bin/env python3
"""Record reference.json: sha256 of every output at the default benchmark seed.

Run from the repository root, only at a commit whose outputs are known to
be right: ``python3 perfbench/record_reference.py``. A call that fails its
exact invariants aborts the recording.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    cli = workloads.import_cli()
    out_root = workloads.ROOT / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=out_root, prefix="tmp-") as tmp:
        for name in workloads.WORKLOAD_NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp))
            digests = reference[name] = {}
            for call in workload.calls:
                _, rc, out, err = workloads.invoke(cli.main, call)
                res = workloads.check_call(call, rc, out, err)
                if res.problems:
                    print("\n".join(res.problems), file=sys.stderr)
                    return 1
                digests.update(res.digests)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
