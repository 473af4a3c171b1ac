"""Config parsing, CSV emission, reruns, comparison runs and exit codes."""

import hashlib
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
from bvrvi import harness
from bvrvi.cli import main
from bvrvi.errors import ParameterError, PremiseViolationError, UsageError
from bvrvi.harness import (
    CSV_COLUMNS,
    _run_seeds,
    aggregate_rows,
    canonical_text,
    parse_config,
    read_config_file,
    run_experiment,
)
from bvrvi.operators import RegularizedGameOperator, build_regularized_game


def _read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [line.split(",") for line in lines[1:]]


def _hash_dir(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

def test_default_wiring_for_matrix_game():
    cfg = parse_config(["--experiment", "matrix-game", "--n", "100",
                        "--seed", "7", "--batch", "2"])
    assert cfg.experiment == "matrix-game"
    assert cfg.method == "alg1"
    assert cfg.n == 100
    assert cfg.iters == 15000
    assert cfg.batch == 2
    assert cfg.seeds == (7,)
    assert cfg.log_stride == 100
    assert cfg.timing is False


def test_empty_argv_is_usage_error(capsys):
    with pytest.raises(UsageError):
        parse_config([])
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error:" in err


def test_alpha_conflicts_with_preset():
    argv = ["--experiment", "matrix-game", "--alpha", "0.05",
            "--preset", "corollary31"]
    with pytest.raises(UsageError) as exc:
        parse_config(argv)
    assert "alpha" in str(exc.value) and "corollary31" in str(exc.value)
    assert main(argv) == 2


def test_method_preset_conflict_names_both():
    with pytest.raises(UsageError) as exc:
        parse_config(["--experiment", "matrix-game", "--method", "vr-forb",
                      "--preset", "example41"])
    msg = str(exc.value)
    assert "vr-forb" in msg and "example41" in msg


def test_seed_and_seeds_conflict():
    with pytest.raises(UsageError):
        parse_config(["--experiment", "matrix-game", "--seed", "1",
                      "--seeds", "1,2"])


def test_partial_manual_params_rejected():
    with pytest.raises(UsageError, match="gamma"):
        parse_config(["--experiment", "matrix-game", "--gamma", "0.5"])


def test_tau_requires_vr_forb():
    with pytest.raises(UsageError, match="tau"):
        parse_config(["--experiment", "matrix-game", "--tau", "0.1"])
    cfg = parse_config(["--experiment", "matrix-game", "--method", "vr-forb",
                        "--tau", "0.1"])
    assert cfg.tau == 0.1


def test_linear_rate_rejects_presets_sizes_and_vr_forb():
    with pytest.raises(UsageError, match="linear-rate"):
        parse_config(["--experiment", "linear-rate", "--preset", "corollary31"])
    with pytest.raises(UsageError, match="8-dimensional"):
        parse_config(["--experiment", "linear-rate", "--n", "5"])
    with pytest.raises(UsageError, match="vr-forb"):
        parse_config(["--experiment", "linear-rate", "--method", "vr-forb"])
    cfg = parse_config(["--experiment", "linear-rate"])
    assert cfg.n == 8 and cfg.iters == 3000 and cfg.batch == 0


def test_config_file_merging_and_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "experiment = matrix-game\n"
        "\n"
        "n = 10\n"
        "seeds = 3,4\n",
        encoding="utf-8",
    )
    cfg = parse_config(["--config", str(path), "--n", "20"])
    assert cfg.experiment == "matrix-game"
    assert cfg.n == 20  # flag wins over the file
    assert cfg.seeds == (3, 4)


def test_config_file_unknown_key_reports_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = matrix-game\nfrobnicate = 1\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        read_config_file(path)
    assert f"{path}:2" in str(exc.value)
    assert "frobnicate" in str(exc.value)


def test_canonical_text_round_trips(tmp_path):
    cfg = parse_config(["--experiment", "matrix-game", "--n", "12",
                        "--iters", "30", "--batch", "3", "--seeds", "5,6",
                        "--gamma", "0.5", "--p", "0.25", "--alpha", "0.0125"])
    text = canonical_text(cfg)
    path = tmp_path / "echo.cfg"
    path.write_text(text, encoding="utf-8")
    again = parse_config(["--config", str(path)])
    assert again == cfg
    assert canonical_text(again) == text


def test_aggregate_rows_median_and_seed_mismatch():
    rows = {
        0: [(0, 1, 1, "m", 1.0, 0.0, 0)],
        1: [(0, 3, 1, "m", 3.0, 0.0, 1)],
        2: [(0, 2, 1, "m", 7.0, 0.0, 2)],
    }
    agg = aggregate_rows(rows)
    assert agg == [(0, 2, 1, "m", 3.0, 0.0, -1)]
    rows[2].append((5, 2, 1, "m", 1.0, 0.0, 2))
    with pytest.raises(ParameterError):
        aggregate_rows(rows)
    rows[2] = [(0, 2, 1, "other", 7.0, 0.0, 2)]
    with pytest.raises(ParameterError):
        aggregate_rows(rows)


@pytest.mark.parametrize("n_seeds", [5, 8])
def test_aggregate_rows_bits_match_statistics_median(n_seeds):
    rng = np.random.default_rng(n_seeds)
    rows = {seed: [(it, int(rng.integers(1, 10**6)), int(rng.integers(1, 99)), name,
                    math.nan if (it, name) == (0, "b") else float(rng.standard_normal()),
                    float(rng.random()), seed)
                   for it in range(0, 50, 5) for name in ("a", "b")]
            for seed in range(n_seeds)}
    got = aggregate_rows(rows)
    want = helpers.reference_aggregate_rows(rows)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Running experiments.
# ---------------------------------------------------------------------------

def _tiny_argv(out: Path, extra=()):
    return ["--experiment", "matrix-game", "--n", "6", "--iters", "50",
            "--log-stride", "10", "--batch", "2", "--seeds", "0,1",
            "--out", str(out), *extra]


def test_run_experiment_emits_expected_files(tmp_path, capsys):
    cfg = parse_config(_tiny_argv(tmp_path / "runs"))
    assert run_experiment(cfg) == 0
    out = capsys.readouterr().out
    assert "# effective config" in out
    assert "final median duality_gap_ergodic at iter 50:" in out

    out_dir = tmp_path / "runs"
    for name in ("matrix-game_alg1_seed0.csv", "matrix-game_alg1_seed1.csv",
                 "matrix-game_alg1_aggregate.csv", "matrix-game_alg1_header.txt"):
        assert (out_dir / name).exists()
    assert not (out_dir / "matrix-game_compare.csv").exists()  # --methods only

    rows = _read_rows(out_dir / "matrix-game_alg1_seed0.csv")
    iters = [int(r[0]) for r in rows if r[3] == "duality_gap"]
    assert iters == [0, 10, 20, 30, 40, 50]
    assert all(r[6] == "0" for r in rows)
    assert all(r[5] == "0.0" for r in rows)  # timing off by default

    header = (out_dir / "matrix-game_alg1_header.txt").read_text(encoding="utf-8")
    assert "params.alpha = " in header
    assert "theory.ergodic_coeff = " in header
    assert "accounting.fresh_full_rate_measured = " in header
    # n = 6: M = 36 components, p = 1/6, b = 2; the memoized fresh-evaluation
    # rate p + (1 - p)^2 gives (6 + 25) full-evaluation units plus 2b.
    nominal = [line for line in header.splitlines()
               if line.startswith("accounting.component_calls_per_iter_nominal = ")]
    assert len(nominal) == 1
    assert float(nominal[0].split(" = ")[1]) == pytest.approx(35.0, rel=1e-12)


def test_aggregate_matches_independent_median(tmp_path):
    cfg = parse_config(_tiny_argv(tmp_path))
    run_experiment(cfg)
    seed_rows = {
        seed: _read_rows(tmp_path / f"matrix-game_alg1_seed{seed}.csv")
        for seed in (0, 1)
    }
    agg = _read_rows(tmp_path / "matrix-game_alg1_aggregate.csv")
    assert len(agg) == len(seed_rows[0])
    for i, row in enumerate(agg):
        pair = [float(seed_rows[s][i][4]) for s in (0, 1)]
        assert row[0] == seed_rows[0][i][0]
        assert row[3] == seed_rows[0][i][3]
        assert float(row[4]) == pytest.approx((pair[0] + pair[1]) / 2.0, rel=1e-15)
        assert row[6] == "-1"


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(_tiny_argv(tmp_path))
    run_experiment(cfg)
    before = _hash_dir(tmp_path)
    run_experiment(parse_config(_tiny_argv(tmp_path)))
    assert _hash_dir(tmp_path) == before
    assert len(before) == 3


def test_timing_flag_records_wall_times(tmp_path):
    cfg = parse_config(_tiny_argv(tmp_path, extra=["--timing"]))
    run_experiment(cfg)
    rows = _read_rows(tmp_path / "matrix-game_alg1_seed0.csv")
    finals = [float(r[5]) for r in rows if r[0] == "50"]
    assert all(v > 0.0 for v in finals)


def test_compare_methods_duplicate_method_repeats_rows(tmp_path, capsys):
    argv = ["--experiment", "matrix-game", "--n", "6", "--iters", "40",
            "--log-stride", "10", "--batch", "2", "--seeds", "0,1",
            "--methods", "alg1,alg1", "--out", str(tmp_path)]
    assert run_experiment(parse_config(argv)) == 0
    out = capsys.readouterr().out
    # One summary line per distinct method.
    assert out.count("median final duality_gap_ergodic [alg1]:") == 1

    lines = (tmp_path / "matrix-game_compare.csv").read_text("utf-8").splitlines()
    assert lines[0] == ("method,seed,iter,component_calls,full_evals,"
                        "metric_name,metric_value,wall_ms")
    body = lines[1:]
    assert len(body) == 6  # (2 seeds + median) twice
    assert body[:3] == body[3:]
    median = body[2].split(",")
    assert median[0] == "alg1" and median[1] == "-1" and median[2] == "40"


def test_exit_code_3_on_premise_violation(tmp_path, capsys):
    argv = ["--experiment", "matrix-game", "--n", "2", "--iters", "5",
            "--batch", "1", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "premise violation" in capsys.readouterr().err


def test_exit_code_4_on_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied", encoding="utf-8")
    argv = _tiny_argv(blocker / "sub")
    assert main(argv) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, n", [
    ("matrix-game", 20), ("nonmonotone-game", 20),
    ("matrix-game", 600), ("nonmonotone-game", 600),
], ids=["matrix-game", "nonmonotone-game", "matrix-game-split", "nonmonotone-game-split"])
def test_exit_code_5_on_divergence(tmp_path, capsys, experiment, n):
    """n = 600 (2.9 MB of payoff) splits each full evaluation over two
    threads; the pair worker's products run outside the step's errstate
    window and must leak no warning either."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--experiment", experiment, "--n", str(n), "--gamma", "0.5",
                     "--p", "0.1", "--alpha", "1e308", "--iters", "200", "--seeds", "0",
                     "--out", str(out)])
    # The monotone game warns that alpha exceeds its step bound; numpy's
    # overflow and invalid-value warnings must not leak.
    leaked = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
              and "exceeds the guaranteed step bound" not in str(w.message)]
    assert leaked == []
    assert code == 5
    # Checked at log points only: the window runs from the last finite one.
    assert "diverged: iterate became non-finite between iterations 1 and 100" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["--experiment", "matrix-game", "--method", "alg1-p1", "--gamma", "0.5",
      "--p", "0.1", "--alpha", "0.1"], 2),
    (["--experiment", "matrix-game", "--method", "alg1-p1"], 2),
    (["--experiment", "nonmonotone-game", "--method", "vr-forb", "--n", "20"], 2),
    (["--experiment", "matrix-game", "--method", "vr-forb", "--n", "20", "--tau", "0.01"], 2),
    (["--experiment", "variance-check", "--methods", "alg1,vr-forb"], 2),
    (["--experiment", "matrix-game", "--n", "70", "--gamma", "0.5", "--p", "0.1",
      "--alpha", "0.01", "--methods", "alg1,vr-forb"], 2),
    (["--experiment", "matrix-game", "--n", "2"], 3),
    (["--experiment", "matrix-game", "--n", "1", "--gamma", "0.5", "--p", "0.1",
      "--alpha", "0.01"], 2),
    (["--experiment", "variance-check", "--n", "1"], 2),
    (["--experiment", "nonmonotone-game", "--n", "0"], 2),
    (["--experiment", "matrix-game", "--batch", "0"], 2),
], ids=["alg1-p1-gamma-not-1", "alg1-p1-matrix-game-unstepped", "vr-forb-preset-small-n",
        "vr-forb-default-p-small-n", "variance-check-methods", "vr-forb-p-without-tau-mixed",
        "example41-premise-small-n",
        "game-n-1-manual", "variance-check-n-1", "explicit-n-0", "explicit-batch-0"])
def test_bad_combination_refused_before_any_output(tmp_path, capsys, argv, code):
    error, prefix = {2: (UsageError, "error:"),
                     3: (PremiseViolationError, "premise violation:")}[code]
    out = tmp_path / "out"
    argv = [*argv, "--iters", "20", "--seeds", "0", "--out", str(out)]
    with pytest.raises(error):
        parse_config(argv)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert prefix in captured.err
    assert not out.exists()


def test_zero_iterations_run_logs_start_only(tmp_path, capsys):
    """An explicit --iters 0 is a start-only run, not the default 15 000."""
    argv = ["--experiment", "nonmonotone-game", "--n", "10", "--iters", "0",
            "--methods", "alg1,alg1-p1", "--seeds", "0,1", "--out", str(tmp_path)]
    assert parse_config(argv).iters == 0
    assert main(argv) == 0
    for method in ("alg1", "alg1-p1"):
        rows = _read_rows(tmp_path / f"nonmonotone-game_{method}_aggregate.csv")
        assert {r[0] for r in rows} == {"0"}
        header = (tmp_path / f"nonmonotone-game_{method}_header.txt").read_text("utf-8")
        assert "iters = 0\n" in header
        assert "fresh_full_rate_measured" not in header
    compare = (tmp_path / "nonmonotone-game_compare.csv").read_text("utf-8")
    assert len(compare.splitlines()) == 1 + 2 * 3


def test_vr_forb_small_n_refusal_names_accepted_flags(tmp_path, capsys):
    argv = ["--experiment", "matrix-game", "--method", "vr-forb", "--n", "20",
            "--iters", "20", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "n >= 67" in err and "tau and p explicitly" in err
    # The advice works: tau and p together run at n = 20.
    assert main([*argv, "--tau", "0.01", "--p", "0.2"]) == 0


def test_vr_forb_takes_tau_and_optional_p(tmp_path, capsys):
    argv = ["--experiment", "matrix-game", "--n", "20", "--method", "vr-forb",
            "--tau", "0.01", "--p", "0.2", "--iters", "20", "--seeds", "0",
            "--out", str(tmp_path)]
    assert parse_config(argv).p == 0.2
    assert main(argv) == 0
    header = (tmp_path / "matrix-game_vr-forb_header.txt").read_text("utf-8")
    assert ("params.gamma = 1.0\nparams.p = 0.2\nparams.alpha = 0.01\nparams.b = 1\n"
            "params.preset = manual\n") in header
    # No guarantee covers the sticky anchor; only heads evaluate afresh.
    assert "theory.unavailable = " in header and "theory.ergodic_coeff" not in header
    assert "accounting.fresh_full_rate_memoized = 0.2\n" in header


@pytest.mark.parametrize("extra", [["--gamma", "0.3", "--alpha", "7"],
                                   ["--gamma", "0.3", "--p", "0.2", "--alpha", "7"]])
def test_vr_forb_alone_refuses_gamma_and_alpha(tmp_path, capsys, extra):
    argv = ["--experiment", "matrix-game", "--method", "vr-forb", *extra,
            "--tau", "0.01", "--iters", "20", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vr-forb takes --tau and an optional --p" in captured.err


@pytest.mark.parametrize("build_fn, argv, builds", [
    ("build_matrix_game", ["--experiment", "matrix-game", "--methods", "alg1,vr-forb",
                           "--n", "8", "--gamma", "0.5", "--p", "0.5", "--alpha", "0.01",
                           "--tau", "0.01"], 1),
    ("build_regularized_game", ["--experiment", "nonmonotone-game", "--n", "70",
                                "--methods", "alg1,alg1-p1,vr-forb", "--tau", "0.01"], 1),
    ("build_linear_rate_fixture", ["--experiment", "linear-rate",
                                   "--methods", "alg1,alg1-p1"], 2),
], ids=["matrix-game", "nonmonotone-game", "linear-rate"])
def test_each_problem_built_once_per_run(tmp_path, capsys, monkeypatch, build_fn, argv,
                                         builds):
    """The games do not depend on the method; linear-rate has one fixture per variant."""
    calls = []
    original = getattr(harness, build_fn)
    monkeypatch.setattr(harness, build_fn, lambda *a, **k: calls.append(a) or original(*a, **k))
    assert main([*argv, "--iters", "10", "--seeds", "0,1", "--out", str(tmp_path)]) == 0
    assert len(calls) == builds


def test_linear_rate_manual_stepping_keeps_fixture_batch(tmp_path, capsys):
    argv = ["--experiment", "linear-rate", "--gamma", "0.45", "--p", "0.05",
            "--alpha", "0.41", "--iters", "30", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    header = (tmp_path / "linear-rate_alg1_header.txt").read_text("utf-8")
    assert "params.b = 32\n" in header and "params.preset = manual\n" in header


def test_run_seeds_is_serial_on_calling_thread():
    caller = threading.get_ident()
    calls = []

    def fn(seed):
        calls.append((seed, threading.get_ident()))
        return seed * 10

    out = _run_seeds(fn, (5, 2, 9))
    assert calls == [(5, caller), (2, caller), (9, caller)]
    assert list(out.items()) == [(5, 50), (2, 20), (9, 90)]


def test_variance_check_experiment(tmp_path, capsys):
    argv = ["--experiment", "variance-check", "--n", "3", "--batch", "2",
            "--mc-batches", "1500", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "variance-check seed 0: PASS" in out
    assert "variance-check overall: PASS" in out
    rows = _read_rows(tmp_path / "variance-check_seed0.csv")
    names = [r[3] for r in rows]
    assert names == ["variance_ratio", "variance_empirical", "variance_bound"]
    ratio = float(rows[0][4])
    assert 0.0 <= ratio <= 1.0 + 1e-9
    assert float(rows[1][4]) <= float(rows[2][4]) * (1.0 + 1e-9) + 1e-12


def test_linear_rate_run_headline(tmp_path, capsys):
    argv = ["--experiment", "linear-rate", "--iters", "60", "--log-stride", "20",
            "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "final median dist_to_solution at iter 60:" in out
    rows = _read_rows(tmp_path / "linear-rate_alg1_seed0.csv")
    nat0 = [r for r in rows if r[0] == "0" and r[3] == "natural_residual"]
    assert len(nat0) == 1 and math.isnan(float(nat0[0][4]))
    header = (tmp_path / "linear-rate_alg1_header.txt").read_text("utf-8")
    assert "theory.theta = " in header


def test_nonmonotone_run_uses_residual_headline(tmp_path, capsys):
    argv = ["--experiment", "nonmonotone-game", "--n", "8", "--iters", "30",
            "--log-stride", "10", "--seeds", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "final median residual_scaled at iter 30:" in capsys.readouterr().out
    header = (tmp_path / "nonmonotone-game_alg1_header.txt").read_text("utf-8")
    assert "params.preset = example42-alg11" in header
    assert "theory.sigma1 = " in header


# ---------------------------------------------------------------------------
# Memory.
# ---------------------------------------------------------------------------

def _traced_peak(fn) -> int:
    """Bytes allocated by fn() at its traced peak above what was live before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _matrix_game_run(tmp_path):
    argv = ["--experiment", "matrix-game", "--n", "500", "--iters", "200",
            "--out", str(tmp_path)]

    def run():
        assert main(argv) == 0
    return 500, run


def _regularized_game_init(tmp_path):
    payoff = build_regularized_game(300).payoff
    return 300, lambda: RegularizedGameOperator(payoff, lam=0.01, spectral_norm=10.0)


def _regularized_game_build(tmp_path):
    return 300, lambda: build_regularized_game(300)


@pytest.mark.parametrize("case, payoffs", [
    (_matrix_game_run, 1.5),
    (_regularized_game_init, 1.5),
    (_regularized_game_build, 2.5),
], ids=["matrix-game-cli-run", "regularized-game-init", "regularized-game-build"])
def test_game_allocates_no_extra_payoff_copy(tmp_path, capsys, case, payoffs):
    """A whole matrix-game run allocates its payoff and no second n x n
    array; the regularized game's constructor allocates at most one
    payoff-sized array, and its builder the payoff plus one temporary."""
    n, fn = case(tmp_path)
    fn()  # warm-up: numpy's lazy imports are not the program's memory
    assert _traced_peak(fn) < payoffs * n * n * 8
