"""Record the correctness reference that run.py checks every fit against.

For each workload and seed it runs the fit phase once, untraced, and
stores a hash of the chosen-learner sequence and the test metric of every
fitted model in reference.json. Run it only on a commit whose results are
the accepted ones; a later change must reproduce them.

Usage (from the repository root):

    python3 perfbench/record_reference.py --seeds 0 49 [--workload sim-race]
"""

import argparse
import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, reference_entry  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    p.add_argument("--workload", choices=tuple(WORKLOADS), action="append")
    args = p.parse_args(argv)
    path = run.HERE / "reference.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]("full")
        entries = doc["workloads"].setdefault(name, {})
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            workdir = run.make_workdir("reference")
            try:
                fitted = workload.fit(workload.make_inputs(seed, str(workdir)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            entries[str(seed)] = {model: reference_entry(fit) for model, fit in fitted.fits.items()}
            print(name, seed, {m: e["test_metric"] for m, e in entries[str(seed)].items()}, flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
