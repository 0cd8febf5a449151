"""Record the output digests that run.py checks every run against.

    python3 perfbench/record_digests.py

Runs each workload's CLI config once per seed in SEEDS (once in all for
workloads whose outputs do not depend on the seed) and writes
perfbench/digests.json.
Run it only on a commit whose output bytes are known to be right: the
digests are the reproducibility contract that later changes are held to.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(16)


def seed_free(workload: str) -> bool:
    return "percolation" not in run.WORKLOADS[workload].config


def main() -> int:
    record = {}
    with run.work_dir("record") as work:
        for workload in run.WORKLOADS:
            outputs = {}
            for seed in ([0] if seed_free(workload) else SEEDS):
                config = run.write_config(work, workload, seed)
                out = work / f"{workload}-{seed}"
                cmd = [sys.executable, "-m", "percospec.cli",
                       *run.cli_args(workload, config, out)]
                _, _, code = run.run_child(cmd, work / "log.txt",
                                           run.CHILD_TIMEOUT_S)
                problems = run.check_outputs(workload, out)
                if code != 0 or problems:
                    print(f"{workload} seed {seed}: exit {code} {problems}",
                          file=sys.stderr)
                    return 1
                key = "any" if seed_free(workload) else str(seed)
                outputs[key] = run.output_digests(out)
                print(workload, key, flush=True)
            record[workload] = {"config": run.WORKLOADS[workload].config,
                                "outputs": outputs}
    run.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
