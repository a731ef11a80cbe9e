"""Record the outputs the benchmark's checks compare against.

    python3 bench/record_reference.py

writes bench/reference.json: the sweep verdicts of every (system, section)
pair and the summary of every cli pool entry.  The file was written once, at
the commit that introduced the benchmark, and is committed with it; later
changes are judged against it and must not re-record it.  Sweep verdicts are
taken on several seeds and must agree, because a run compares them on its own
seeded batch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads as wl  # noqa: E402

VERDICT_SEEDS = (0, 1, 2)


def main():
    fd = run.import_framedyn()
    sweep = {}
    for seed in VERDICT_SEEDS:
        inputs = wl.WORKLOADS["sweep"].inputs(seed, None)
        ctx = wl.WORKLOADS["sweep"].build(fd, inputs)
        for op in wl.WORKLOADS["sweep"].ops(ctx, inputs):
            verdicts = op.run()["verdicts"]
            if sweep.setdefault(op.label, verdicts) != verdicts:
                raise SystemExit(f"{op.label}: verdicts depend on the seed")
    cli = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for key, entry in sorted(wl.cli_pool().items()):
            argv, out = wl.cli_argv(entry, Path(tmp), key)
            code, stdout, stderr = wl.run_cli(fd, argv)
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}: {stderr}")
            cli[key] = wl.cli_summary(entry, stdout, out)[0]
    path = wl.REFERENCE_PATH
    with open(path, "w") as fh:
        json.dump({"sweep": sweep, "cli": cli}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(sweep)} sweep pairs, {len(cli)} cli entries")


if __name__ == "__main__":
    main()
