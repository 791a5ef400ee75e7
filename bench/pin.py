"""Record the output digests that the benchmark pins.

    PYTHONPATH=src python3 bench/pin.py --seeds 0-31

Run from the root of a checkout.  For every workload and seed this makes
the workload's reference call (see workload.py), checks it with the
oracles, and writes its digest to bench/pins.json only if every check
passed.  Re-pin only when a change is meant to alter reported numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile

import checks
import nbknn.cli
from workload import Runner
from workloads import WORKLOADS, prepare


def pin(name: str, seed: int, root: str) -> str | None:
    workdir = tempfile.mkdtemp(prefix="pin-", dir=os.path.join(root, ".bench_tmp"))
    try:
        job = {"workload": name, "seed": seed, "seconds": 0, "workdir": workdir,
               "files": prepare(name, workdir, seed), "spans_path": os.devnull}
        runner = Runner(job, nbknn.cli)
        if name == "fit_predict_wide":
            digest = runner.call(1)[1]
            ok = digest is not None and checks.query_failures(
                runner.outputs[digest], seed, runner.messages) == 0
        else:
            capture = checks.Capture()
            digest = runner.captured_call(capture)[1]
            ok = digest is not None and checks.trial_failures(
                capture, runner.outputs[digest], WORKLOADS[name], runner.messages) == set()
        for message in runner.messages:
            print(f"{name} seed {seed}: {message}")
        return digest if ok else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    with open(checks.PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    for name in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            digest = pin(name, seed, root)
            if digest is None:
                print(f"{name} seed {seed}: checks failed, not pinned")
                continue
            pins.setdefault(name, {})[str(seed)] = digest
            with open(checks.PINS_PATH, "w", encoding="utf-8") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name} seed {seed}: {digest}", flush=True)


if __name__ == "__main__":
    main()
