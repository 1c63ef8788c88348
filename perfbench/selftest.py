"""Self-test of the output checkers.

    python3 perfbench/selftest.py

For one small job of each checker it runs the real CLI, requires the checker
to accept the output, then corrupts the output in a way a real fault could
(an order off by one, W_p multiplied by p, the c_p of a wrong group, a
broken embedding witness, ...) and requires the checker to reject each.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import sys
from fractions import Fraction

import run
from checks import check_output
from workloads import (G2_MATRIX, _period_job, _tamagawa_job, _tower_job,
                       _vanishing_job, write_inputs)


def _jobs():
    rng = random.Random(0)
    with open(os.path.join(run.ROOT, G2_MATRIX)) as fh:
        matrix_doc = json.load(fh)
    return {
        "vanishing": _vanishing_job(rng, "m8_o12", 8, 12, 2, (4,)),
        "period": _period_job(rng, "up", 12, "up", 1, matrix_doc),
        "tamagawa": _tamagawa_job(rng, "theta_swap", "theta", (3, 3, 4),
                                  "swap"),
        "tamagawa_trivial": _tamagawa_job(rng, "cycle", "cycle", (6,),
                                          "trivial"),
        "tower": _tower_job(rng, "deg12", [2, 2, 3], 2, 20),
    }


def _corruptions(name, out):
    """(description, corrupted output) pairs the checker must reject."""
    bad = []

    def variant(desc, edit):
        doc = copy.deepcopy(out)
        edit(doc)
        bad.append((desc, doc))

    if name == "vanishing":
        variant("order off by one",
                lambda d: d.update(order=d["order"] + 1))
        variant("exact flag flipped",
                lambda d: d.update(exact=not d["exact"]))
    elif name == "period":
        variant("W_p multiplied by p", lambda d: d["W"].update(
            {"2": str(Fraction(d["W"]["2"]) * 2)}))
        variant("omega doubled", lambda d: d.update(
            omega=repr(2 * float(d["omega"]))))
        variant("witness changed", lambda d: d["witness"].__setitem__(
            0, d["witness"][0] + 1))
    elif name == "tamagawa":
        variant("c_p of a wrong group (the trivial action's)",
                lambda d: d.update(c_p=3 * 3 + 3 * 4 + 4 * 3))
        variant("invariant factors of a wrong group of the same order",
                lambda d: d.update(invariant_factors=[3, 11]))
    elif name == "tamagawa_trivial":
        variant("c_p of a wrong group (I_5)", lambda d: d.update(c_p=5))
    elif name == "tower":
        def break_witness(d):
            entry = d["registry"]["6"]
            w = [Fraction(c) for c in entry["embedding"]] or [Fraction(0)]
            w[0] += 1
            entry["embedding"] = [str(c) for c in w]
        variant("broken embedding witness", break_witness)
        variant("registry key missing",
                lambda d: d["registry"].pop("4"))
        variant("defining polynomial reducible mod p", lambda d: d.update(
            defining_poly=[0] + d["defining_poly"][1:]))
        variant("descent result not congruent mod p", lambda d: d.update(
            optimised_poly=[d["optimised_poly"][0] + 1]
            + d["optimised_poly"][1:]))
        variant("disc_after misreported", lambda d: d.update(
            disc_after=str(int(d["disc_after"]) - 1)))
    return bad


def main():
    run.require_sources()
    work = os.path.join(run.RUNS_DIR, f"selftest-{os.getpid()}")
    failures = 0
    try:
        cli = run.import_cli()
        with open(os.path.join(run.ROOT, G2_MATRIX)) as fh:
            base_matrix = json.load(fh)
        for name, job in _jobs().items():
            write_inputs([job], work)
            if job.kind == "tamagawa" and job.expect["frob"] != "trivial":
                job.expect["c_p"] = run.reference_cp(job)
            code, out, err, *_ = run.run_job(cli, job.argv)
            if code != 0:
                print(f"FAIL {name}: the CLI exited {code}: {err.strip()}")
                failures += 1
                continue
            problems = check_output(job.kind, out, job.expect, base_matrix)
            print(f"{'ok  ' if not problems else 'FAIL'} {name}: real "
                  f"output accepted {problems or ''}")
            failures += bool(problems)
            for desc, doc in _corruptions(name, json.loads(out)):
                problems = check_output(job.kind, json.dumps(doc),
                                        job.expect, base_matrix)
                print(f"{'ok  ' if problems else 'FAIL'} {name}: {desc} "
                      f"{'rejected' if problems else 'accepted'}")
                failures += not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "passed" if not failures else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
