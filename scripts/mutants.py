#!/usr/bin/env python3
"""Run one-line mutants of the security chain, the count model and the simulator's draw against tier-1, and report
what catches each.

A mutant is one named text edit of one file: an exact string, which must
occur there once, and its replacement.  For each mutant the script copies
``src/``, ``tests/``, ``perfbench/``, ``scripts/``, ``pyproject.toml`` and
``BENCHMARK.json`` (which the benchmark's smoke tests read) to a temporary
directory, applies the edit, runs the whole tier-1 suite there
and lists every failing test.  A failing test named in ``PINNED`` compares a
pinned number; any other failing test checks a property.  A mutant whose
string no longer occurs exactly once is reported as stale, without a run.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

The unedited copy runs first: it must pass, and run every test in
``PINNED``.  Exit status 0 means every mutant run failed at least one
property test; 1 means one was stale, survived, failed only pins, or timed
out; 2 means the unedited copy failed or ``PINNED`` is out of date.
Each run takes as long as tier-1 does, one run at a time.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml", "BENCHMARK.json")
TIMEOUT_S = 1800

#: (name, file, exact old text, new text)
MUTANTS = [
    ("s1-cap-dropped", "src/qkdnet/decoy.py",
     "    s1_lower = min(s1_lower, z_record.detected)\n", ""),
    ("n_x1-ceiled", "src/qkdnet/decoy.py",
     "n_x1 = int(math.floor(sum(", "n_x1 = int(math.ceil(sum("),
    ("s1-rounded", "src/qkdnet/decoy.py",
     "s1_lower = int(math.floor(z_record.sent * p1_z * y1_lower))",
     "s1_lower = int(round(z_record.sent * p1_z * y1_lower))"),
    ("serfling-whole-eps", "src/qkdnet/decoy.py",
     "eps_serf = min(1.0, eps_each)", "eps_serf = min(1.0, eps_total)"),
    ("report-without-eps_h", "src/qkdnet/qds.py",
     "epsilon_spent=epsilon_inherited + params.eps_h,", "epsilon_spent=epsilon_inherited,"),
    ("secure-ignores-p_rep", "src/qkdnet/qds.py",
     "total = self.p_rep + self.p_hab", "total = self.p_hab"),
    ("block-charges-eps-once", "src/qkdnet/decoy.py",
     "epsilon_spent=bounds.epsilon_spent + 2.0 * eps,", "epsilon_spent=bounds.epsilon_spent + eps,"),
    ("yield-lp-without-lower-rows", "src/qkdnet/decoy.py",
     '        y1 = solve_bounded_lp(objective, yield_rows, rhs[0], "min")\n',
     '        rhs[0, 0:n_rate:2] = 0.0\n        y1 = solve_bounded_lp(objective, yield_rows, rhs[0], "min")\n'),
    ("writable-memoised-law", "src/qkdnet/channel.py",
     "        law.flags.writeable = False\n", ""),
    ("csv-tallies-read-with-int", "src/qkdnet/decoy.py",
     "rec = _tallies(row, json.loads)", "rec = _tallies(row, int)"),
    ("pool-size-unchecked", "src/qkdnet/qds.py",
     'check_count(pool_size, "pool_size", low=params.c_test + params.c_sig)',
     'check_count(pool_size, "pool_size")'),
    ("schedule-edge-cells-unrefined", "src/qkdnet/netsim.py",
     "    table[top[top < 65536].astype(int)] = EDGE\n", ""),
    ("schedule-edge-never-reached", "src/qkdnet/netsim.py", "(r >= frac)", "(r > frac)"),
    ("entry-budget-x-share-once", "src/qkdnet/keyrate.py",
     '"X": n_pulses * (1.0 - z) ** senders}', '"X": n_pulses * (1.0 - z)}'),
    ("error-mix-without-dark-share", "src/qkdnet/channel.py",
     "_error_mix(0.5 * y0 + ", "_error_mix(y0 + "),
]

#: tests that compare a pinned number (a published value, a digest or a fixed count); an id
#: without parameters covers every parametrized case
PINNED = {
    "tests.test_acceptance::test_criterion_01_attacker_error_floor",
    "tests.test_acceptance::test_criterion_02_qber_upper_bounds",
    "tests.test_acceptance::test_criterion_03_thresholds",
    "tests.test_acceptance::test_criterion_04_signature_lengths",
    "tests.test_acceptance::test_criterion_05_signature_count_and_timing",
    "tests.test_acceptance::test_criterion_06_abort_and_forge_margins",
    "tests.test_acceptance::test_criterion_10_multisignature_improvement",
    "tests.test_cli::test_preset_stdout_is_pinned",
    "tests.test_cli.TestKeyrate::test_readme_flow_reads_the_intensities_that_made_the_counts",
    "tests.test_cli.TestQds::test_reference_relay_preset",
    "tests.test_cli.TestQds::test_reference_point_to_point_preset",
    "tests.test_qds.TestDistillReport::test_full_relay_chain",
    "tests.test_qds.TestMinFeasibleAcquisition::test_comparison_probes_the_full_acquisition_once",
    "tests.test_mathkit.TestReuseBases::test_criterion_10_loads_each_lp_family_once",
    # digests of the plans, the runs and the desk network's output files, and the first entry a too-short run misses
    "tests.test_netsim.TestPlanDigests::test_plan_arrays_are_pinned",
    "tests.test_netsim.TestPlanDigests::test_run_outputs_are_pinned",
    "tests.test_cli.TestSimulate::test_desk_preset_reproduces_the_hand_built_network",
    "tests.test_scripts::test_run_network_demo_refuses_too_few_slots[too-few-for-every-entry]",
    # the bytes of two synthesized tables, and the relay pool sizes that three short seed-3 runs leave
    "tests.test_decoy.TestCountTable::test_json_bytes_unchanged",
    "tests.test_qds.TestRelayChain::test_too_small_a_pool_has_no_positive_rate",
    # the multisig workload checks criterion 10's 108/18 and the published presets' counts
    "perfbench.tests.test_smoke::test_workload_reports_every_metric[multisig-0]",
    "perfbench.tests.test_smoke::test_workload_reports_every_metric[multisig-1]",
}


def is_pin(test: str) -> bool:
    return test in PINNED or test.split("[")[0] in PINNED


def tier1(tree: Path) -> tuple:
    """The ids (``module.Class::test[param]``) of the tier-1 tests that ran in ``tree``, and of those that failed."""
    report = tree / "junit.xml"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                    f"--junitxml={report}"], cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=TIMEOUT_S)
    cases = list(ET.parse(report).iter("testcase"))
    ids = [f"{case.get('classname')}::{case.get('name')}" for case in cases]
    return ids, [i for i, case in zip(ids, cases) if case.find("failure") is not None or case.find("error") is not None]


def run(edit=None) -> tuple:
    """:func:`tier1` on a fresh copy of the tree with ``edit`` (file, old, new) applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        if edit:
            path, old, new = edit
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return tier1(tree)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s) {sorted(unknown)}; known: {', '.join(m[0] for m in MUTANTS)}")

    ran, failing = run()
    if failing:
        print("the unedited tree fails tier-1:", *failing, sep="\n  ")
        return 2
    missing = PINNED - {key for test in ran for key in (test, test.split("[")[0])}
    if missing:
        print("PINNED names tests that no longer run:", *sorted(missing), sep="\n  ")
        return 2
    print("| mutant | file | failing tests | pinned | property | verdict |")
    print("|---|---|---|---|---|---|")
    details, all_caught = [], True
    for name, path, old, new in MUTANTS:
        if args.names and name not in args.names:
            continue
        occurrences = (ROOT / path).read_text(encoding="utf-8").count(old)
        if occurrences != 1:
            print(f"| {name} | {path} | - | - | - | stale: its text occurs {occurrences} times |")
            all_caught = False
            continue
        try:
            _, failing = run((path, old, new))
        except subprocess.TimeoutExpired:
            print(f"| {name} | {path} | - | - | - | timed out after {TIMEOUT_S} s |")
            all_caught = False
            continue
        pins = sum(map(is_pin, failing))
        verdict = "caught" if pins < len(failing) else "pins only" if failing else "survives"
        all_caught &= verdict == "caught"
        print(f"| {name} | {path} | {len(failing)} | {pins} | {len(failing) - pins} | {verdict} |")
        details.append((name, [f"{test} (pin)" if is_pin(test) else test for test in failing]))
    for name, failing in details:
        print(f"\n{name}:", *failing or ["(none)"], sep="\n  ")
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main())
