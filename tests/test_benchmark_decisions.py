"""The library's decisions on the benchmark's own inputs.

Every shortcut of the coverage sweep must leave each verdict and question
count as the plain solve-every-question sweep has them, so a change that
makes the sweep faster can be checked here against the `oracle-agreement`
systems, without a benchmark run. The cone solves of each seed are
recorded too, counted where every solve runs: a change that moves them
changes the record.
The controllability layer's verdicts, condition results, ranks and
sparsity levels on the seed-1 `eig-large` and `cli-commands` systems are
pinned too, and so are the rank sequences and verification verdicts of
`decompose` on the `cli-commands` systems; they are integers and
booleans, so they hold on any machine."""

from helpers import count_cone_solves, load_workloads

from nnscontrol import cli, oracle

U, C = "uncovered", "covered_at"
# (outcome, k_used, lp_count) of coverage_probe on each case of
# build_oracle_agreement(seed, "full", ...), in build order.
SEED_1 = [
    (U, 6, 379), (U, 6, 341), (U, 6, 418), (U, 6, 295), (U, 6, 263), (U, 6, 424), (U, 6, 371),
    (U, 6, 351), (U, 6, 335), (U, 6, 426), (U, 6, 396), (U, 6, 458), (U, 6, 408), (U, 6, 404),
    (U, 6, 11598), (U, 6, 499), (U, 6, 367), (U, 6, 335), (U, 6, 408), (C, 2, 136), (C, 2, 471),
    (U, 6, 328), (C, 2, 102), (U, 6, 666), (C, 1, 292), (C, 1, 165), (C, 1, 68), (C, 3, 544),
    (U, 6, 420), (U, 6, 673), (U, 6, 420), (C, 2, 140), (U, 6, 420), (C, 2, 361), (C, 2, 244),
    (U, 6, 420), (C, 2, 296), (C, 2, 134), (C, 2, 468), (C, 2, 231), (C, 2, 94), (C, 2, 742),
    (C, 1, 294), (C, 1, 169), (C, 1, 68), (C, 3, 523), (C, 3, 206), (C, 3, 1185), (C, 2, 275),
    (C, 2, 140), (C, 3, 2035), (C, 2, 580), (C, 2, 244), (C, 2, 138),
]
SEED_2 = [
    (U, 6, 369), (U, 6, 356), (U, 6, 438), (U, 6, 341), (U, 6, 303), (U, 6, 444), (U, 6, 344),
    (U, 6, 336), (U, 6, 318), (U, 6, 426), (U, 6, 420), (U, 6, 458), (U, 6, 417), (U, 6, 411),
    (U, 6, 11598), (U, 6, 443), (U, 6, 404), (U, 6, 393), (U, 6, 408), (C, 2, 136), (C, 2, 441),
    (U, 6, 292), (C, 2, 96), (U, 6, 666), (C, 1, 292), (C, 1, 169), (C, 1, 68), (C, 3, 524),
    (U, 6, 420), (U, 6, 717), (U, 6, 420), (C, 2, 140), (U, 6, 420), (C, 2, 575), (C, 2, 274),
    (U, 6, 420), (C, 2, 305), (C, 2, 136), (C, 2, 401), (C, 2, 190), (C, 2, 104), (C, 2, 592),
    (C, 1, 290), (C, 1, 184), (C, 1, 68), (C, 3, 515), (C, 3, 210), (C, 3, 855), (C, 3, 242),
    (C, 3, 172), (C, 3, 1794), (C, 2, 294), (C, 2, 250), (C, 2, 140),
]
SEED_3 = [
    (U, 6, 389), (U, 6, 347), (U, 6, 419), (U, 6, 344), (U, 6, 328), (U, 6, 456), (U, 6, 396),
    (U, 6, 371), (U, 6, 340), (U, 6, 426), (U, 6, 408), (U, 6, 458), (U, 6, 420), (U, 6, 420),
    (U, 6, 11598), (U, 6, 485), (U, 6, 379), (U, 6, 360), (U, 6, 408), (C, 2, 136), (C, 2, 451),
    (U, 6, 306), (C, 2, 95), (U, 6, 680), (C, 1, 291), (C, 1, 174), (C, 1, 68), (C, 3, 504),
    (U, 6, 420), (U, 6, 780), (U, 6, 416), (C, 2, 140), (U, 6, 420), (C, 2, 309), (C, 2, 259),
    (U, 6, 420), (C, 2, 314), (C, 2, 136), (C, 2, 450), (C, 2, 172), (C, 2, 94), (C, 2, 650),
    (C, 1, 301), (C, 1, 170), (C, 1, 68), (C, 3, 551), (C, 3, 210), (C, 3, 1275), (C, 2, 271),
    (C, 2, 140), (C, 3, 2028), (C, 2, 380), (C, 2, 239), (C, 2, 138),
]

T, F = True, False
# (controllable, condition i, ii and iii passed, rank_a, min_sparsity) of
# analyse_eig_large on each case of build_eig_large(1, "full", ...).
EIG_LARGE_SEED_1 = [
    (F, T, F, T, 64, None), (T, T, T, T, 63, 1), (T, T, T, T, 64, 1),
    (F, T, F, T, 64, None), (T, T, T, T, 56, 8), (T, T, T, T, 64, 1),
    (F, T, F, T, 64, None), (F, F, F, F, 48, None), (T, T, T, T, 64, 1),
    (F, T, F, T, 64, None), (F, F, F, F, 32, None), (T, T, T, T, 64, 1),
    (F, T, F, T, 64, None), (F, F, F, F, 16, None), (T, T, T, T, 64, 1),
]
# (controllable, min_sparsity, required, q_sizes, all_passed) of the check,
# min-sparsity and decompose reports of analyse_cli on each case of
# build_cli_commands(1, "full", ...).
CLI_COMMANDS_SEED_1 = [
    (F, None, None, (), T), (T, 1, 1, (1,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (T, 2, 2, (2,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (T, 4, 4, (4,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (F, None, None, (8,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (F, None, None, (12,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (T, 1, 1, (1,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (T, 2, 2, (2,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (F, 4, 4, (4,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (F, None, None, (8,), T), (T, 1, 0, (), T),
    (F, None, None, (), T), (F, None, None, (12,), T), (T, 1, 0, (), T),
]
# (rank_sequence, all_passed) of the decompose report on each case of
# build_cli_commands(1, "full", ...): the same ranks and the same verdict
# of verify_decomposition, whatever basis P is built from.
DECOMPOSE_SEED_1 = [
    ((40, 40), T), ((40, 39, 39), T), ((40, 40), T),
    ((40, 40), T), ((40, 38, 38), T), ((40, 40), T),
    ((40, 40), T), ((40, 36, 36), T), ((40, 40), T),
    ((40, 40), T), ((40, 32, 32), T), ((40, 40), T),
    ((40, 40), T), ((40, 28, 28), T), ((40, 40), T),
    ((40, 40), T), ((40, 39, 39), T), ((40, 40), T),
    ((40, 40), T), ((40, 38, 38), T), ((40, 40), T),
    ((40, 40), T), ((40, 36, 36), T), ((40, 40), T),
    ((40, 40), T), ((40, 32, 32), T), ((40, 40), T),
    ((40, 40), T), ((40, 28, 28), T), ((40, 40), T),
]


def decisions(monkeypatch, tmp_path, seed):
    """(outcome, k_used, lp_count) of each case, and the cone solves the
    oracle ran for them all."""
    workloads = load_workloads(monkeypatch)
    cases = workloads.build_oracle_agreement(seed, "full", tmp_path)
    solves = count_cone_solves(monkeypatch)
    verdicts = [
        oracle.coverage_probe(case.system, case.s, workloads.ORACLE_CONFIG) for case in cases
    ]
    found = [(verdict.outcome, verdict.k_used, verdict.lp_count) for verdict in verdicts]
    return found, len(solves)


def test_oracle_agreement_seed_1(monkeypatch, tmp_path):
    found, solves = decisions(monkeypatch, tmp_path, 1)
    assert found == SEED_1
    assert sum(lp_count for _, _, lp_count in SEED_1) == 32168
    assert solves == 627


def test_oracle_agreement_seed_2(monkeypatch, tmp_path):
    found, solves = decisions(monkeypatch, tmp_path, 2)
    assert found == SEED_2
    assert sum(lp_count for _, _, lp_count in SEED_2) == 31439
    assert solves == 570


def test_oracle_agreement_seed_3(monkeypatch, tmp_path):
    found, solves = decisions(monkeypatch, tmp_path, 3)
    assert found == SEED_3
    assert sum(lp_count for _, _, lp_count in SEED_3) == 32208
    assert solves == 596


def test_eig_large_seed_1(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    found = []
    for case in workloads.build_eig_large(1, "full", tmp_path):
        report, level = workloads.analyse_eig_large(case)
        i, ii, iii = report.condition_i, report.condition_ii, report.condition_iii
        found.append((report.controllable, i.passed, ii.passed, iii.passed, iii.rank_a, level))
    assert found == EIG_LARGE_SEED_1


def test_cli_commands_seed_1(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    found = []
    for case in workloads.build_cli_commands(1, "full", tmp_path):
        check, least, decomposition = (
            report["result"] for report, _ in workloads.analyse_cli(case)
        )
        found.append((
            check["verdict"] == "controllable",
            least["min_sparsity"],
            least.get("required"),
            tuple(decomposition["structure"]["q_sizes"]),
            decomposition["verification"]["all_passed"],
        ))
    assert found == CLI_COMMANDS_SEED_1


def test_cli_commands_decompose_seed_1(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    found = []
    for case in workloads.build_cli_commands(1, "full", tmp_path):
        result = cli.run_command(["decompose", str(case.path)])[0]["result"]
        found.append((
            tuple(result["structure"]["rank_sequence"]), result["verification"]["all_passed"]
        ))
    assert found == DECOMPOSE_SEED_1
