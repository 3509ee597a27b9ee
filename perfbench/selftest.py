"""Self-test of the checkers: a valid output passes, each corrupted one fails.

    python3 perfbench/selftest.py

Builds one small instance by hand, derives correct outputs for it from the
checker's own references, and then feeds check.check() one corruption at a
time, expecting the named check to fail.  Exits 1 if any expectation fails.
"""

import copy
import sys

from check import check, enumerate_optimum, highs_lp

TRIALS = 100_000

INSTANCE = {
    "caps": [[10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0, 10.0], [6.0, 6.0, 6.0, 6.0]],
    "demands": [[4.0, 4.0, 4.0, 4.0], [5.0, 5.0, 5.0, 5.0], [3.0, 3.0, 3.0, 3.0],
                [6.0, 6.0, 6.0, 6.0]],
    "rewards": [5.0, 7.0, 3.0, 6.0],
    "thresholds": [0.01, 0.001, 0.01, 0.0001],    # 1, 2, 1 and 2 copies
    "vnf_failure": 0.001,
    "pm_failure": 0.004,
    "single_copy": False,
}

# r0 on node 0, r1 on nodes 0 and 1, r2 on node 2, r3 unserved
GREEDY_X = [[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 0, 0]]
GREEDY_Y = [1, 1, 1, 0]


def valid_output():
    lp = highs_lp(INSTANCE)
    exact = enumerate_optimum(INSTANCE)
    greedy = sum(r for r, y in zip(INSTANCE["rewards"], GREEDY_Y) if y)
    eps_m = INSTANCE["vnf_failure"] + INSTANCE["pm_failure"]
    delivered = [round(TRIALS * (1 - eps_m ** sum(row))) if sum(row) else 0
                 for row in GREEDY_X]
    data = {
        "instances": [INSTANCE],
        "lps": [{"inst": 0, "objective": lp}],
        "solutions": [{"inst": 0, "kind": "greedy", "reward": greedy,
                       "x": GREEDY_X, "y": GREEDY_Y}],
        "oracle": [{"inst": 0, "exact": exact, "greedy": greedy}],
        "availsim": [{"solution": 0, "trials": TRIALS, "delivered": delivered}],
        "mismatches": 0,
        "ratio": {"greedy": [0], "lp": [0]},
    }
    return data, greedy / lp


def _set(path, value):
    def corrupt(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]])
    return corrupt


CORRUPTIONS = (
    ("LP objective 1% high", "lp", _set(("lps", 0, "objective"), lambda v: v * 1.01)),
    ("served request one copy short", "copies",
     _set(("solutions", 0, "x", 1, 1), lambda v: 0)),
    ("node loaded past capacity", "feasible",
     _set(("solutions", 0, "x", 3, 2), lambda v: 1)),
    ("reward misreported", "reward", _set(("solutions", 0, "reward"), lambda v: v + 1)),
    ("exact above the enumeration", "oracle",
     _set(("oracle", 0, "exact"), lambda v: v + 0.5)),
    ("greedy above exact", "oracle", _set(("oracle", 0, "greedy"), lambda v: v + 100)),
    ("delivered count shifted outside the band", "availsim",
     _set(("availsim", 0, "delivered", 0), lambda v: v - 200)),
    ("rounds disagree", "repeat", _set(("mismatches",), lambda v: 1)),
)


def main():
    data, ratio = valid_output()
    bad = 0
    _, errors = check(data, ratio)
    print(f"valid output: {'passes' if not errors else f'FAILS {errors}'}")
    bad += bool(errors)
    for label, name, corrupt in CORRUPTIONS:
        corrupted = copy.deepcopy(data)
        corrupt(corrupted)
        _, errors = check(corrupted, ratio)
        caught = name in {n for n, _ in errors}
        print(f"{label}: {name} check {'fails as it should' if caught else 'MISSES it'}")
        bad += not caught
    _, errors = check(data, ratio * 1.001)
    caught = "ratio" in {n for n, _ in errors}
    print(f"reward_vs_lp misreported: ratio check "
          f"{'fails as it should' if caught else 'MISSES it'}")
    bad += not caught
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
