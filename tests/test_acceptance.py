"""Acceptance criteria, one test per criterion.

Each criterion runs entries of the property registry
`spcausal.pathlab.PROPERTIES` at seed 42 and acceptance sizes, prints a
single pass/fail line with the worst-case margin of its first entry, and
enforces the stated runtime budget.
"""

import time

from spcausal.pathlab import PROPERTIES

SEED = 42
DIMS = (1, 2, 3)

#: criterion -> (registry names, label, trials, dims, budget in seconds)
CRITERIA = {
    1: (("dist_formula",), "dist formula vs G(log)", 1500, DIMS, 10),
    2: (("broken_geodesic_max",), "broken geodesics never beat dist",
        200, DIMS, 30),
    3: (("tau_monotone",), "tau strictly increasing on 1000 paths",
        1000, DIMS, 60),
    4: (("exit_times",), "exit times finite, closed form, tau divergence",
        300, DIMS, 60),
    5: (("endpoint_connect",), "connect on 300 confined-path endpoints",
        300, DIMS, 60),
    6: (("angle_complement",), "both logs interior; angle complement",
        500, DIMS, 10),
    7: (("krein_calibration",), "Krein calibration set", 1, DIMS, 1),
    8: (("maslov_consistency",), "mu lift vs closed form", 100, DIMS, 30),
    9: (("diamond_bounded", "closed_timelike_loop"),
        "bounded diamonds; closed timelike loop", 1000, (2,), 60),
}

#: registry entries that only `verify_suite` runs
SUITE_ONLY = {"phase_monotone", "quasimorphism_defect"}


def run_criterion(num):
    names, label, trials, dims, budget = CRITERIA[num]
    t0 = time.perf_counter()
    results = [PROPERTIES[name](SEED, dims, trials) for name in names]
    elapsed = time.perf_counter() - t0
    ok = all(passed for passed, _, _ in results)
    line = (
        f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: "
        f"margin={results[0][1]:.3e} runtime={elapsed:.1f}s/{budget:.0f}s"
    )
    print(line)
    assert ok, (line, results)
    assert elapsed < budget, line


def test_registry_covered_by_gate_or_suite_only():
    gated = {name for names, *_ in CRITERIA.values() for name in names}
    assert not gated & SUITE_ONLY
    assert set(PROPERTIES) == gated | SUITE_ONLY


def criterion(num):
    def test():
        run_criterion(num)
    return test


test_criterion_1_distance_formula = criterion(1)
test_criterion_2_maximality = criterion(2)
test_criterion_3_time_function = criterion(3)
test_criterion_4_exit_times = criterion(4)
test_criterion_5_geodesic_connectedness = criterion(5)
test_criterion_6_theorem2_shadow = criterion(6)
test_criterion_7_krein_calibration = criterion(7)
test_criterion_8_maslov_consistency = criterion(8)
test_criterion_9_global_hyperbolicity_evidence = criterion(9)
