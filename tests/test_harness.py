"""Tests for the experiment harness and CLI."""

import hashlib
import json

import numpy as np
import pytest

from rarl import harness
from rarl.cli import main
from rarl.estimators import KernelSampler, MlmcConfig
from rarl.harness import (
    ConfigError,
    ExperimentConfig,
    build_environment,
    build_mlmc_config,
    build_policy,
    nearest_rank_percentile,
    run_control_experiment,
    run_eval_experiment,
    run_planner,
    run_robustness_sweep,
    run_support_check,
    seed_stream,
)
from rarl.learners import Constant, robust_rvi_td
from rarl.mdp import OffsetFn, Policy, gain_and_bias
from rarl.uncertainty import TotalVariation


def eval_config(**overrides):
    doc = {
        "environment": {"id": "garnet", "params": {"n_states": 4, "n_actions": 2, "seed": 5}},
        "uncertainty": {"kind": "contamination", "delta": 0.3},
        "algorithm": "td",
        "n_iters": 400,
        "n_seeds": 3,
        "base_seed": 17,
        "record_every": 10,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            eval_config(algorithm="zen")

    def test_rejects_unknown_environment(self):
        with pytest.raises(ConfigError):
            build_environment({"id": "casino"})

    def test_max_level_61_accepted(self):
        # 62 and 63 exit 1: TestCli::test_exit_one_on_bad_run_field
        assert build_mlmc_config({"max_level": 61}, TotalVariation(0.2)) == MlmcConfig(0.25, 61)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            eval_config(n_seeds=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_iters", "100"),
            ("n_iters", 100.0),
            ("n_seeds", 2.5),
            ("n_seeds", True),
            ("base_seed", "0"),
            ("base_seed", -1),
            ("record_every", 0),
            ("record_every", 1.5),
            ("planner_tol", 0.0),
            ("planner_tol", -1e-9),
            ("planner_tol", float("inf")),
            ("planner_tol", float("nan")),
            ("planner_tol", "1e-9"),
            ("tail_fraction", "0.1"),
        ],
    )
    def test_rejects_bad_numeric_field(self, name, value):
        with pytest.raises(ConfigError, match=name):
            eval_config(**{name: value})

    def test_to_dict_round_trip(self):
        cfg = eval_config(policy=[[0.5, 0.5]] * 4, sweep={"family": "one_loop_mix"}, support_check={"instances": 2})
        doc = cfg.to_dict()
        assert ExperimentConfig.from_dict(doc) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(doc))) == cfg
        assert list(doc) == [
            "environment", "uncertainty", "algorithm", "offset", "schedule", "n_iters", "n_seeds", "base_seed",
            "estimator", "policy", "record_every", "tail_fraction", "planner_tol", "sweep",
            "support_check",
        ]

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "nope.json")

    def test_environment_registry(self):
        for doc in (
            {"id": "one_loop"},
            {"id": "recycling_robot", "params": {"alpha": 0.6}},
            {"id": "inventory", "params": {"capacity": 8, "max_order": 4}},
            {"id": "frozen_lake", "params": {"slip_probability": 0.5}},
            {"id": "example_a", "params": {"r1": 1.0, "r2": 2.0, "r3": 4.0}},
        ):
            assert build_environment(doc).n_states >= 2


    @pytest.mark.parametrize(
        "policy",
        [
            [[0.5, 0.5]] * 3,  # 3 rows for 4 states
            {"deterministic": [0, 1, 0]},  # 3 actions for 4 states
            [[1.5, -0.5]] * 4,  # negative entry
            [[0.6, 0.6]] * 4,  # row sum 1.2
            [[float("nan"), 1.0]] * 4,  # non-finite entry
            [[0.5, 0.5], [1.0]] * 2,  # ragged rows
            {"deterministic": [0, 1, 2, 0]},  # action 2 of 2
            {"deterministic": [0, 1, -1, 0]},  # negative action
            "greedy",  # no such spec
        ],
    )
    def test_rejects_bad_policies(self, policy):
        with pytest.raises(ConfigError, match="policy"):
            build_policy(policy, build_environment(eval_config().environment))

    def test_rejects_a_policy_of_the_wrong_shape(self):
        # the rows are distributions, so only the check against the MDP's shape catches them
        mdp = build_environment(eval_config().environment)
        for policy in ([[1.0, 0.0, 0.0]] * 4, [[0.5, 0.5]] * 5):
            with pytest.raises(ConfigError, match=r"bad policy: shape \(\d, \d\) != \(4, 2\)"):
                build_policy(policy, mdp)

    def test_accepts_valid_policies(self):
        mdp = build_environment(eval_config().environment)
        assert build_policy({"deterministic": [0, 1, 1, 0]}, mdp).actions().tolist() == [0, 1, 1, 0]
        np.testing.assert_array_equal(build_policy([[0.25, 0.75]] * 4, mdp).probs, [[0.25, 0.75]] * 4)


class TestSeedStreams:
    def test_streams_independent_of_seed_count(self):
        a = seed_stream(10, 2).random(5)
        b = seed_stream(10, 2).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(seed_stream(10, 2).random(5), seed_stream(10, 3).random(5))

    def test_adding_seeds_keeps_earlier_traces(self, tmp_path):
        two = run_eval_experiment(eval_config(n_seeds=2), tmp_path / "two")
        three = run_eval_experiment(eval_config(n_seeds=3), tmp_path / "three")
        assert two["per_seed_tail"] == three["per_seed_tail"][:2]


class TestPercentiles:
    def test_nearest_rank(self):
        values = np.arange(1.0, 11.0)[:, None]  # 10 seeds, one column
        assert nearest_rank_percentile(values, 95.0)[0] == 10.0
        assert nearest_rank_percentile(values, 5.0)[0] == 1.0
        assert nearest_rank_percentile(values, 50.0)[0] == 5.0


class TestEvalExperiment:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = eval_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        summary_a = run_eval_experiment(cfg, out_a)
        summary_b = run_eval_experiment(cfg, out_b)
        trace_a = (out_a / "trace.csv").read_bytes()
        trace_b = (out_b / "trace.csv").read_bytes()
        assert trace_a == trace_b
        assert summary_a["final_mean"] == summary_b["final_mean"]
        header = trace_a.decode().splitlines()[0]
        assert header == "iter,mean,p95,p05,baseline"
        planner = json.loads((out_a / "summary.json").read_text())["planner"]
        assert planner["damped"] == 0
        assert planner["iterations"] >= 1 and planner["residual"] <= cfg.planner_tol
        assert (out_a / "plot.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "kind, plot_sha, trace_sha",
        [
            (
                "contamination",
                "9e0ee34e8386219368647d5da2e979d1f412ff6b3527c6174f51b42b2803c1bb",
                "3e58473016c98a2715f427d129acf0c718acf12ae6a20b38f8ae3f67f7d776b9",
            ),
            (
                "tv",
                "dd3f3b52480a8e5c86b3c30d3e6d9bdd0aaf7952e54a71b2c0ed7813abde0cca",
                "efe708c0eaeb26a0774c92aca1c72160687ffce2db6b248ad1b492ab55552170",
            ),
        ],
    )
    def test_output_bytes_pinned(self, tmp_path, kind, plot_sha, trace_sha):
        # SHA-256 of plot.svg (band, baseline and polyline) and trace.csv for the default eval
        # config; a change to either file's bytes must say so
        run_eval_experiment(eval_config(uncertainty={"kind": kind, "delta": 0.3}), tmp_path)
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("plot.svg", "trace.csv")]
        assert digests == [plot_sha, trace_sha]

    def test_single_seed_band_degenerates(self, tmp_path):
        cfg = eval_config(n_seeds=1)
        run_eval_experiment(cfg, tmp_path)
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _, mean, p95, p05, _ = row.split(",")
            assert mean == p95 == p05

    def test_batched_seeds_match_solo_runs(self, tmp_path):
        cfg = eval_config(uncertainty={"kind": "tv", "delta": 0.2}, n_iters=100)
        summary = run_eval_experiment(cfg, tmp_path)
        mdp = build_environment(cfg.environment)
        solo = [
            robust_rvi_td(
                KernelSampler.from_mdp(mdp), mdp, Policy.uniform(4, 2), TotalVariation(0.2), OffsetFn.mean(),
                Constant(0.01), 100, MlmcConfig(0.25), seed_stream(17, i), record_every=10,
            ).tail_mean(0.1)
            for i in range(3)
        ]
        assert summary["per_seed_tail"] == solo

    def test_diverged_seed_is_reported_and_dropped(self, tmp_path, monkeypatch):
        cfg = eval_config(uncertainty={"kind": "tv", "delta": 0.2}, n_seeds=10, n_iters=50)
        clean = run_eval_experiment(cfg, tmp_path / "clean")
        calls, solve = [], TotalVariation.support_batch

        def support_batch(self, rows, v):
            calls.append(len(rows) == 32)  # a learner solve: 4n rows, n = 8 pairs; the planner solves 8
            out = solve(self, rows, v)
            return out * np.nan if sum(calls) == 10 * 5 + 4 + 1 and calls[-1] else out  # seed 4, iteration 5

        monkeypatch.setattr(TotalVariation, "support_batch", support_batch)
        summary = run_eval_experiment(cfg, tmp_path / "poisoned")
        assert summary["seed_errors"] == ["seed 4: non-finite iterate at step 5"]
        assert summary["n_seeds_done"] == 9
        assert summary["per_seed_tail"] == clean["per_seed_tail"][:4] + clean["per_seed_tail"][5:]

    def test_delta_zero_baseline_is_nominal_gain(self, tmp_path):
        cfg = eval_config(uncertainty={"kind": "contamination", "delta": 0.0})
        summary = run_eval_experiment(cfg, tmp_path)
        m = build_environment(cfg.environment)
        nominal = gain_and_bias(m, Policy.uniform(4, 2)).gain
        assert summary["baseline_gain"] == pytest.approx(nominal, abs=1e-6)


class TestControlExperiment:
    def test_outputs(self, tmp_path):
        cfg = eval_config(algorithm="q", n_iters=600)
        summary = run_control_experiment(cfg, tmp_path)
        assert (tmp_path / "policy.json").exists()
        doc = json.loads((tmp_path / "policy.json").read_text())
        assert len(doc["modal_policy"]) == 4
        assert len(doc["per_seed_policies"]) == 3
        assert "baseline_gain" in summary
        planner = json.loads((tmp_path / "summary.json").read_text())["planner"]
        assert planner["damped"] == 0
        assert planner["iterations"] >= 1 and planner["residual"] <= cfg.planner_tol

    def test_offset_state_indexes_the_q_table(self, tmp_path):
        # control pins the flattened S*A-entry Q table, so on garnet(4, 2, 3) state 5 is entry (2, 1);
        # evaluation pins the S-entry value
        def config(algorithm, state, **fields):
            env = {"id": "garnet", "params": {"n_states": 4, "n_actions": 2, "seed": 3}}
            return eval_config(algorithm=algorithm, environment=env, offset={"kind": "state", "state": state}, **fields)

        summary = run_control_experiment(config("q", 5, n_iters=200), tmp_path / "q")
        assert np.isfinite(summary["baseline_gain"])
        assert len(run_planner(config("planner", 5, policy="optimal"), tmp_path / "plan")["policy"]) == 4
        with pytest.raises(ConfigError, match=r"offset.state must be below n_states \* n_actions = 8, got 8"):
            run_control_experiment(config("q", 8), tmp_path / "q8")
        for run, algorithm in ((run_eval_experiment, "td"), (run_planner, "planner")):
            with pytest.raises(ConfigError, match="offset.state must be below n_states = 4, got 5"):
                run(config(algorithm, 5), tmp_path / algorithm)

class TestPlannerCommand:
    def test_eval_and_control(self, tmp_path):
        cfg = eval_config(algorithm="planner")
        doc = run_planner(cfg, tmp_path / "e")
        assert "value" in doc
        cfg2 = eval_config(algorithm="planner", policy="optimal")
        doc2 = run_planner(cfg2, tmp_path / "c")
        assert "policy" in doc2 and len(doc2["policy"]) == 4
        for folder in ("e", "c"):
            written = json.loads((tmp_path / folder / "baseline.json").read_text())
            assert written["damped"] == 0
            assert written["iterations"] >= 1 and written["residual"] <= cfg.planner_tol


class TestSweep:
    def test_one_loop_crossover(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "environment": {"id": "one_loop"},
                "uncertainty": {"kind": "contamination", "delta": 0.4},
                "algorithm": "robustness-sweep",
                "n_iters": 12_000,
                "base_seed": 3,
                "sweep": {"family": "one_loop_mix", "x_grid": [0.0, 0.5, 1.0], "start_state": 0},
            }
        )
        doc = run_robustness_sweep(cfg, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "perturbation,robust_gain,nonrobust_gain"
        assert len(lines) == 4
        rows = doc["rows"]
        # fully perturbed endpoint: robust (left) earns 0, non-robust (right) -0.5
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)
        assert rows[-1][2] == pytest.approx(-0.5, abs=1e-9)
        assert rows[0][2] >= rows[0][1]  # nominal favors the non-robust policy
        assert (tmp_path / "sweep.svg").exists()

    def test_grid_of_size_one(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "environment": {"id": "one_loop"},
                "uncertainty": {"kind": "contamination", "delta": 0.4},
                "algorithm": "robustness-sweep",
                "n_iters": 2_000,
                "base_seed": 3,
                "sweep": {"family": "one_loop_mix", "x_grid": [0.0], "start_state": 0},
            }
        )
        run_robustness_sweep(cfg, tmp_path)
        assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 2

    def test_unknown_family_rejected(self, tmp_path):
        cfg = eval_config(algorithm="robustness-sweep", sweep={"family": "volcano"})
        with pytest.raises(ConfigError):
            run_robustness_sweep(cfg, tmp_path)

    @pytest.mark.parametrize(
        "environment, sweep",
        [
            ("one_loop", {"family": "volcano"}),
            ("one_loop", {"family": "one_loop_mix", "x_grid": ["a"]}),
            ("one_loop", {"family": "one_loop_mix", "x_grid": 0.5}),
            ("one_loop", {"family": "one_loop_mix", "x_grid": [1.5]}),
            ("one_loop", {"family": "one_loop_mix", "x_grid": []}),
            ("one_loop", {"family": "one_loop_mix", "start_state": 2}),
            ("recycling_robot", {"family": "recycling_robot", "x_grid": ["a"]}),
            ("recycling_robot", {"family": "recycling_robot", "x_grid": [float("nan")]}),
            ("recycling_robot", {"family": "recycling_robot", "points_per_axis": 0}),
            ("recycling_robot", {"family": "recycling_robot", "points_per_axis": "3"}),
            ("inventory", {"family": "inventory_b", "b_grid": ["a"]}),
            ("inventory", {"family": "inventory_b", "b_grid": [1.5]}),
            ("inventory", {"family": "inventory_b", "m": 99}),
            ("inventory", {"family": "inventory_b", "m": 2.5}),
            ("inventory", {"family": "inventory_m", "m_grid": ["a"]}),
            ("inventory", {"family": "inventory_m", "m_grid": [-1]}),
            ("inventory", {"family": "inventory_m", "b": "a"}),
            ("inventory", {"family": "inventory_m", "b": 2.0}),
            ("inventory", {"family": "inventory_m", "b": True}),
            ("inventory", {"family": "inventory_b", "b_grid": [True]}),
            ("one_loop", {"family": "one_loop_mix", "x_grid": ["0.5"]}),
            ({"id": "garnet", "params": {"n_states": 4, "n_actions": 2, "seed": 5}}, {"family": "one_loop_mix"}),
            ("one_loop", {"family": "inventory_m"}),
            ("recycling_robot", {"family": "inventory_b"}),
            ("inventory", {"family": "recycling_robot"}),
        ],
    )
    def test_bad_section_fails_before_any_learner_runs(self, tmp_path, monkeypatch, environment, sweep):
        calls = []
        monkeypatch.setattr(harness, "robust_rvi_q", lambda *args, **kwargs: calls.append(args))
        environment = environment if isinstance(environment, dict) else {"id": environment}
        cfg = eval_config(environment=environment, algorithm="robustness-sweep", sweep=sweep)
        with pytest.raises(ConfigError):
            run_robustness_sweep(cfg, tmp_path)
        assert calls == []


class TestSupportCheck:
    def test_report_passes_and_negative_control_detects(self, tmp_path):
        cfg = eval_config(
            algorithm="support-check",
            support_check={"instances": 4, "resolution": 60, "mlmc_draws": 4000},
        )
        report, ok = run_support_check(cfg, tmp_path)
        assert ok
        rows = {r["check"]: r for r in report["rows"]}
        assert rows["negative-control/corrupted-delta"]["passed"]
        assert (tmp_path / "report.txt").exists()


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_on_eval(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {
                "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
                "uncertainty": {"kind": "contamination", "delta": 0.2},
                "algorithm": "td",
                "n_iters": 200,
                "n_seeds": 2,
            },
        )
        assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert "baseline=" in capsys.readouterr().out

    def test_exit_one_on_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"environment": {"id": "nope"}, "uncertainty": {}, "algorithm": "td"})
        assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("name, value", [("n_iters", "100"), ("record_every", 0)])
    def test_exit_one_on_bad_numeric_field(self, tmp_path, capsys, name, value):
        doc = {
            "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
            "uncertainty": {"kind": "contamination", "delta": 0.2},
            "algorithm": "td",
            name: value,
        }
        assert main(["eval", "--config", self.write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("estimator", "abc", "estimator must be a JSON object"),
            ("estimator", {"psi": "abc"}, "estimator.psi"),
            ("estimator", {"max_level": -1}, "estimator.max_level"),
            ("schedule", {"alpha": "x"}, "schedule.alpha"),
            ("schedule", {"alpha": -1}, "schedule.alpha"),
            ("offset", {"kind": "state", "state": 99}, "offset.state"),
            ("schedule", {"kind": "constant", "alpah": 5.0}, "schedule has unknown field(s) ['alpah']"),
            ("offset", {"kind": "state", "stat": 2}, "offset has unknown field(s) ['stat']"),
            ("offset", {"kind": "ref", "state": 2}, "unknown offset kind 'ref'"),
            ("schedule", {"kind": "linear", "c": 1.0}, "unknown schedule kind 'linear'"),
            ("estimator", {"psy": 0.9}, "estimator has unknown field(s) ['psy']"),
            ("uncertainty", {"kind": "tv", "delta": 0.2, "l": 3}, "uncertainty has unknown field(s) ['l']"),
            ("uncertainty", {"kind": "tv", "delta": True}, "uncertainty.delta must be a JSON number"),
            ("uncertainty", {"kind": "tv", "delta": "0.2"}, "uncertainty.delta must be a JSON number"),
            ("uncertainty", {"kind": "wasserstein", "delta": 0.2, "l": "2"}, "uncertainty.l must be a JSON number"),
            ("environment", {"id": "garnet", "params": [1, 2]}, "environment.params must be a JSON object"),
            ("environment", {"id": "garnet", "params": "abc"}, "environment.params must be a JSON object"),
            ("environment", {"id": "garnet", "parms": {}}, "environment has unknown field(s) ['parms']"),
            ("environment", {"id": "one_loop", "params": {"n": 2}}, "bad environment config"),
            ("policy", {"deterministic": [0, 1, 0], "stochastic": 1}, "unsupported policy spec"),
            ("algorithm", "q", "algorithm must be 'td' for eval"),
            ("algorithm", "planner", "algorithm must be 'td' for eval"),
            ("estimator", {"max_level": 62}, "estimator.max_level must lie in [0, 61]"),
            ("estimator", {"max_level": 63}, "estimator.max_level must lie in [0, 61]"),
        ],
    )
    def test_exit_one_on_bad_run_field(self, tmp_path, capsys, monkeypatch, field, value, message):
        # checked once before the planner or any seed runs, not reported as per-seed failures
        calls = []
        for name in ("robust_rvi_eval", "robust_rvi_control", "robust_rvi_td", "robust_rvi_q"):
            monkeypatch.setattr(harness, name, lambda *args, **kwargs: calls.append(args))
        doc = {
            "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
            "uncertainty": {"kind": "tv", "delta": 0.2},
            "algorithm": "td",
            "n_iters": 20,
            "n_seeds": 2,
            field: value,
        }
        assert main(["eval", "--config", self.write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("kind", ["contamination", "tv", "chi2", "kl", "wasserstein"])
    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_exit_one_on_non_finite_radius(self, tmp_path, capsys, kind, delta):
        doc = {
            "environment": {"id": "garnet", "params": {"n_states": 5, "n_actions": 3, "seed": 1}},
            "uncertainty": {"kind": kind, "delta": delta},
            "algorithm": "planner",
        }
        assert main(["plan", "--config", self.write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert "config error: bad uncertainty config" in capsys.readouterr().err

    def test_exit_one_on_a_non_finite_reward(self, tmp_path, capsys):
        # JSON NaN parses, and the environment's MDP rejects the reward it makes
        doc = {
            "environment": {"id": "recycling_robot", "params": {"r_search": float("nan")}},
            "uncertainty": {"kind": "tv", "delta": 0.2},
            "algorithm": "planner",
        }
        path = self.write_config(tmp_path, doc)
        assert '"r_search": NaN' in open(path).read()
        assert main(["plan", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error: bad environment config: invalid MDP: non-finite reward at (s=0,a=0)" in err

    def test_exit_one_on_an_empty_demand_law(self, tmp_path, capsys):
        doc = {
            "environment": {"id": "inventory", "params": {"demand": []}},
            "uncertainty": {"kind": "tv", "delta": 0.2},
            "algorithm": "planner",
        }
        path = self.write_config(tmp_path, doc)
        assert main(["plan", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error: bad environment config: demand must be a probability vector: row sum 0" in err

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            ("sweep", "sweep", "abc", "sweep must be a JSON object"),
            ("support-check", "support_check", {"instances": "x"}, "support_check.instances"),
            ("support-check", "support_check", {"instances": 0}, "support_check.instances"),
            ("support-check", "support_check", {"resolution": 0}, "support_check.resolution"),
            ("support-check", "support_check", {"mlmc_draws": 1}, "support_check.mlmc_draws"),
            ("support-check", "support_check", {"deltas": []}, "support_check.deltas"),
            ("support-check", "support_check", {"deltas": "abc"}, "support_check.deltas"),
            ("support-check", "support_check", {"deltas": [0.1, 0.0]}, "support_check.deltas"),
            ("support-check", "support_check", {"deltas": [0.1, float("nan")]}, "support_check.deltas"),
            ("sweep", "sweep", {"family": "volcano"}, "bad sweep config: unknown sweep family"),
            ("sweep", "sweep", {"family": "one_loop_mix", "x_grid": ["a"]}, "bad sweep config"),
            ("sweep", "sweep", {"family": "one_loop_mix", "b_grid": [0.5]}, "bad sweep config: sweep has unknown"),
            ("support-check", "support_check", {"instance": 2}, "support_check has unknown field(s) ['instance']"),
            ("control", "algorithm", "td", "algorithm must be 'q' for control"),
            ("eval", "algorithm", "support-check", "algorithm must be 'td' for eval"),
            ("plan", "algorithm", "q", "algorithm must be 'planner' for plan"),
            ("sweep", "algorithm", "q", "algorithm must be 'robustness-sweep' for sweep"),
            ("support-check", "algorithm", "planner", "algorithm must be 'support-check' for support-check"),
            ("control", "policy", [[0.5, 0.5], [0.5, 0.5]], "policy is not read by control"),
            ("sweep", "policy", {"deterministic": [1, 1]}, "policy is not read by sweep"),
            ("sweep", "n_seeds", 7, "n_seeds is not read by sweep"),
            ("support-check", "environment", {"id": "nope"}, "unknown environment id 'nope'"),
            ("support-check", "uncertainty", {"kind": "volcano"}, "uncertainty.kind must be one of"),
        ],
    )
    def test_exit_one_on_bad_section(self, tmp_path, capsys, command, field, value, message):
        algorithm = {"eval": "td", "control": "q", "plan": "planner", "sweep": "robustness-sweep"}
        doc = {
            "environment": {"id": "one_loop"},
            "uncertainty": {"kind": "contamination", "delta": 0.4},
            "algorithm": algorithm.get(command, "support-check"),
            "n_iters": 20,
            field: value,
        }
        assert main([command, "--config", self.write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        if field == "environment":  # one prefix: the unknown id is not wrapped as a bad config
            assert "bad environment config" not in err

    @pytest.mark.parametrize(
        "command, name",
        [(command, name) for command, (_, unread) in harness.COMMANDS.items() for name in unread],
    )
    def test_exit_one_on_unread_field(self, tmp_path, capsys, command, name):
        # a field its command does not read may hold only its default; the check comes before out_dir
        doc = {
            "environment": {"id": "one_loop"},
            "uncertainty": {"kind": "contamination", "delta": 0.4},
            "algorithm": harness.COMMANDS[command][0],
            "n_iters": 20,
            name: {"policy": [[0.5, 0.5]] * 2, "n_seeds": 7}[name],
        }
        out = tmp_path / "out"
        assert main([command, "--config", self.write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert f"config error: {name} is not read by {command}" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_one_on_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_exit_two_on_run_failure(self, tmp_path):
        # absurd step size: every seed diverges, tripping the guard
        path = self.write_config(
            tmp_path,
            {
                "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
                "uncertainty": {"kind": "contamination", "delta": 0.2},
                "algorithm": "td",
                "schedule": {"kind": "constant", "alpha": 5.0},
                "n_iters": 5_000,
                "n_seeds": 2,
            },
        )
        assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 2

    def test_seed_override(self, tmp_path):
        doc = {
            "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
            "uncertainty": {"kind": "contamination", "delta": 0.2},
            "algorithm": "td",
            "n_iters": 100,
            "n_seeds": 2,
            "base_seed": 0,
        }
        path = self.write_config(tmp_path, doc)
        assert main(["eval", "--config", path, "--out", str(tmp_path / "a"), "--seed", "99"]) == 0
        doc["base_seed"] = 99
        path2 = self.write_config(tmp_path, doc)
        assert main(["eval", "--config", path2, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_seed_override_is_validated(self, tmp_path, capsys):
        doc = {
            "environment": {"id": "garnet", "params": {"n_states": 3, "n_actions": 2, "seed": 1}},
            "uncertainty": {"kind": "contamination", "delta": 0.2},
            "algorithm": "td",
        }
        path = self.write_config(tmp_path, doc)
        assert main(["eval", "--config", path, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert "config error: base_seed" in capsys.readouterr().err
