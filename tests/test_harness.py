"""Config parsing, CLI subcommands, SVG rendering, README example."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

import fedamp as fa
from fedamp import analysis, cli
from fedamp.cli import main, paperdemo_arms
from fedamp.config import (SCHEMA, _fmt, _parse_value, build_pattern,
                           build_population, build_schedule)
from fedamp.svg import line_chart

BASE_CFG = """\
[population]
N = 8
m = 4
noise = gaussian
sigma = 0.5

[pattern]
kind = permutation
S = 2

[run]
gamma = 0.05
eta = 2.0
I = 3
P = 4
T = 64
x0_kind = uniform
x0_scale = 2.0

[seeds]
master = 3
replications = 2
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG)
    return str(path)


class TestConfig:
    def test_round_trip_idempotent(self):
        cfg = fa.parse_config_text(BASE_CFG)
        text = cfg.serialize()
        assert fa.parse_config_text(text).serialize() == text
        assert fa.parse_config_text(text).values == cfg.values

    def test_unknown_keys_rejected(self):
        with pytest.raises(fa.ConfigError):
            fa.parse_config_text("[population]\nN = 4\nbogus = 1\n")
        with pytest.raises(fa.ConfigError):
            fa.parse_config_text("[mystery]\nx = 1\n")

    def test_typed_values_and_defaults(self):
        cfg = fa.parse_config_text(BASE_CFG)
        assert cfg.get("run", "T") == 64
        assert cfg.get("run", "gamma") == 0.05
        assert cfg.get("population", "L") == 1.0   # schema default
        with pytest.raises(fa.ConfigError):
            fa.parse_config_text("[run]\nT = sixty\n")

    def test_missing_required_key(self):
        cfg = fa.parse_config_text("[population]\nm = 4\n")
        with pytest.raises(fa.ConfigError):
            cfg.get("population", "N")

    def test_schema_defaults_lie_in_their_domains(self):
        for (section, key), (_, default, _) in SCHEMA.items():
            if default is not None:
                assert _parse_value(section, key, _fmt(default)) == default, key

    def test_overrides(self, cfg_file):
        cfg = fa.load_config(cfg_file, ["run.T=128", "population.sigma=0"])
        assert cfg.get("run", "T") == 128
        assert cfg.get("population", "sigma") == 0.0
        with pytest.raises(fa.ConfigError):
            fa.load_config(cfg_file, ["run.bogus=1"])
        with pytest.raises(fa.ConfigError):
            fa.load_config(cfg_file, ["justakey"])


class TestCliRun:
    def test_success_row_count(self, cfg_file, tmp_path):
        out = str(tmp_path / "o")
        assert main(["run", "--config", cfg_file, "--out", out]) == 0
        with open(out + "/metrics.csv") as fh:
            rows = list(csv.reader(fh))
        # header + replications * (T/eval_every + 1) checkpoints
        assert len(rows) == 1 + 2 * (64 // 4 + 1)
        assert rows[0] == ["run", "seed", "t", "f", "grad_norm_sq",
                           "min_grad_norm_sq", "is_boundary"]

    @pytest.mark.parametrize("rotate", ["true", "false"])
    def test_all_zero_spectrum_exit_1(self, cfg_file, tmp_path, capsys, rotate):
        # a spectrum of zeros cannot be scaled to L; it used to build a NaN
        # population (diagonal: "diverged at round 0", exit 2, NaN metrics)
        out = tmp_path / "o"
        code = main(["run", "--config", cfg_file, "--out", str(out),
                     "--set", "population.spectrum=linspace",
                     "--set", "population.eigen_lo=0",
                     "--set", "population.eigen_hi=0",
                     "--set", f"population.rotate={rotate}"])
        assert code == 1
        assert "error: eigenvalues must not all be zero" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", "--config", cfg_file, "--out", a])
        main(["run", "--config", cfg_file, "--out", b])
        for name in ("metrics.csv", "meta.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_csv_is_loss_free(self, cfg_file, tmp_path):
        out = tmp_path / "o"
        main(["run", "--config", cfg_file, "--out", str(out)])
        pop_cfg = fa.load_config(cfg_file)
        from fedamp.config import (build_noise, build_population,
                                   build_run_config, build_schedule)
        pop = build_population(pop_cfg)
        rep_seed = fa.derive_seed(3, "rep0")
        sched = build_schedule(pop_cfg, pop.N, 64, rep_seed)
        rc = build_run_config(pop_cfg, pop, sched, rep_seed)
        tr = fa.run(pop, build_noise(pop_cfg), sched, rc,
                    fa.derive_seed(rep_seed, "run"))
        with open(out / "metrics.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["run"] == "0"]
        assert [float(r["f"]) for r in rows] == list(tr.f)

    def test_meta_reports_markov_fallback_rounds(self, cfg_file, tmp_path):
        # a nearly always unavailable chain leaves rounds with no client
        sets = ["pattern.kind=markov", "pattern.p_aa=0.05", "pattern.p_uu=0.99"]
        out = tmp_path / "o"
        args = ["run", "--config", cfg_file, "--out", str(out)]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 0
        meta = (out / "meta.txt").read_text()
        from fedamp.config import build_schedule
        cfg = fa.load_config(cfg_file, sets)
        for rep in range(2):
            sched = build_schedule(cfg, 8, 64, fa.derive_seed(3, f"rep{rep}"))
            assert sched.fallback_rounds > 0
            (line,) = [ln for ln in meta.splitlines() if ln.startswith(f"rep{rep}:")]
            assert line.endswith(f" fallback_rounds={sched.fallback_rounds}")

    def test_bad_gamma_exit_1(self, cfg_file, tmp_path, capsys):
        for gamma in ("-1", "0", "nan"):
            out = tmp_path / f"x{gamma}"
            code = main(["run", "--config", cfg_file, "--out", str(out),
                         "--set", f"run.gamma={gamma}"])
            assert code == 1, gamma
            assert "gamma must be positive" in capsys.readouterr().err
            assert not out.exists()    # no empty output directory

    def test_bad_planner_input_exit_1(self, cfg_file, tmp_path, capsys):
        code = main(["run", "--config", cfg_file, "--out", str(tmp_path / "x"),
                     "--set", "run.planner=cor3.2", "--set", "run.gap=-1"])
        assert code == 1
        assert "F0 must be positive" in capsys.readouterr().err

    def test_divergence_exit_2_names_round(self, cfg_file, tmp_path, capsys):
        code = main(["run", "--config", cfg_file, "--out",
                     str(tmp_path / "x"), "--set", "run.gamma=10"])
        assert code == 2
        assert "round" in capsys.readouterr().err

    def test_unreadable_config_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("argv", [
        ["run"],                                          # no --config
        ["run", "--config", "x.cfg", "--seed", "abc"],
        ["paperdemo", "--config", "x.cfg"],               # paperdemo takes none
        ["nosuchcommand"],
    ])
    def test_usage_error_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_zero_replications_exit_1(self, cfg_file, tmp_path, capsys, command):
        code = main([command, "--config", cfg_file, "--out", str(tmp_path / "x"),
                     "--set", "seeds.replications=0", "--set", "sweep.axis=T",
                     "--set", "sweep.values=64"])
        assert code == 1
        assert "replications" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_minibatch_on_quadratic_exit_1(self, cfg_file, tmp_path, capsys):
        code = main(["run", "--config", cfg_file, "--out",
                     str(tmp_path / "x"), "--set", "run.minibatch=2"])
        assert code == 1
        assert "minibatch" in capsys.readouterr().err

    MINIBATCH_PLANNED = ["population.kind=logistic", "population.noise=none",
                         "run.minibatch=4", "run.planner=cor3.2", "run.gap=1.0"]

    def test_minibatch_with_planner_is_config_error(self, cfg_file):
        # the planners need sigma, and a minibatch gradient supplies none; the
        # run was planned as if sigma = 0
        from fedamp.config import build_run_config
        cfg = fa.load_config(cfg_file, self.MINIBATCH_PLANNED)
        pop = build_population(cfg)
        sched = build_schedule(cfg, pop.N, 64, 0)
        with pytest.raises(fa.ConfigError, match="planner"):
            build_run_config(cfg, pop, sched, 0)

    def test_minibatch_with_planner_exit_1(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["run", "--config", cfg_file, "--out", str(out),
                     *(arg for opt in self.MINIBATCH_PLANNED for arg in ("--set", opt))])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a planner needs the gradient noise sigma")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("settings,message", [
        # the run was bit for bit the noiseless one
        (["run.minibatch=4"],
         "error: minibatch takes no gradient noise, got gaussian noise with "
         "sigma = 0.5"),
        # the run was bit for bit the minibatch=16 one
        (["population.noise=none", "run.minibatch=17"],
         "error: minibatch 17 needs a population with at least that many "
         "samples per client; LogisticPopulation has 16")],
        ids=["noise", "oversize"])
    def test_minibatch_the_population_cannot_take_exit_1(self, cfg_file, tmp_path,
                                                         capsys, settings, message):
        out = tmp_path / "x"
        opts = ["population.kind=logistic", "population.samples_per_client=16",
                *settings]
        code = main(["run", "--config", cfg_file, "--out", str(out),
                     *(arg for opt in opts for arg in ("--set", opt))])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,setting", [
        # each was a traceback, a key-less message or a silently different run
        ("run.x0_scale", "nan", "run.planner=cor3.2"),
        ("run.x0_scale", "inf", "run.planner=cor3.2"),
        ("run.x0_scale", "-1", "run.planner=cor3.2"),
        ("run.minibatch", "-1", "population.kind=logistic"),
        ("run.eval_every", "-1", "run.planner=none"),
        ("diagnose.points", "-1", "run.planner=none"),
        ("population.reg", "nan", "population.kind=logistic"),
        ("population.reg", "-1", "population.kind=logistic"),
        ("population.seed", "-1", "run.planner=none")])
    def test_out_of_domain_value_exit_1(self, cfg_file, tmp_path, capsys,
                                        key, value, setting):
        section, name = key.split(".")
        command = "diagnose" if section == "diagnose" else "run"
        out = tmp_path / "x"
        code = main([command, "--config", cfg_file, "--out", str(out),
                     "--set", setting, "--set", f"{key}={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad override value for [{section}] {name}: "
                              f"{value!r} (must be finite and >= ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("G,B,offset", [
        # an OverflowError traceback
        ("2", "10000000000000000000", "3"),
        # "high is out of bounds for int64"
        ("2", "10000000000000000000", "random"),
        # offset + t wrapped to negative positions, silently
        ("1", str(2**63 - 1), str(2**63 - 3))])
    def test_periodic_positions_beyond_int64_exit_1(self, cfg_file, tmp_path,
                                                    capsys, G, B, offset):
        out = tmp_path / "x"
        code = main(["run", "--config", cfg_file, "--out", str(out),
                     "--set", "pattern.kind=periodic", "--set", f"pattern.G={G}",
                     "--set", f"pattern.B={B}", "--set", f"pattern.offset={offset}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: periodic pattern needs G*B + T <= 2**63")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unallocatable_size_exit_1(self, cfg_file, tmp_path, capsys):
        # the (T, S) rows of the schedule need 14 PiB, more than a process
        # can address, so they fail at once under any overcommit policy: no
        # memory is used
        out = tmp_path / "x"
        code = main(["run", "--config", cfg_file, "--out", str(out),
                     "--set", "run.T=1000000000000000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert "shape (1000000000000000, 2)" in err and "[run] T" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_minibatch_on_quadratic_is_config_error(self, cfg_file):
        from fedamp.config import build_population, build_run_config, build_schedule
        cfg = fa.load_config(cfg_file, ["run.minibatch=2"])
        pop = build_population(cfg)
        sched = build_schedule(cfg, pop.N, 64, 0)
        with pytest.raises(fa.ConfigError, match="minibatch"):
            build_run_config(cfg, pop, sched, 0)

    @pytest.mark.parametrize("settings", [["run.minibatch=4"],
                                          ["population.noise=none",
                                           "run.minibatch=17"]],
                             ids=["noise", "oversize"])
    def test_minibatch_the_population_cannot_take_is_config_error(self, cfg_file,
                                                                   settings):
        from fedamp.config import build_population, build_run_config, build_schedule
        cfg = fa.load_config(cfg_file, ["population.kind=logistic",
                                        "population.samples_per_client=16",
                                        *settings])
        pop = build_population(cfg)
        sched = build_schedule(cfg, pop.N, 64, 0)
        with pytest.raises(fa.ConfigError, match="minibatch"):
            build_run_config(cfg, pop, sched, 0)


class TestCliSweep:
    def test_aggregate_rows(self, cfg_file, tmp_path):
        out = str(tmp_path / "s")
        code = main(["sweep", "--config", cfg_file, "--out", out,
                     "--set", "sweep.axis=T", "--set", "sweep.values=64 128 256"])
        assert code == 0
        with open(out + "/sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["64", "128", "256"]
        assert all(r["runs"] == "2" for r in rows)

    def test_speedup_axis_bookkeeping(self, cfg_file, tmp_path):
        out = str(tmp_path / "s")
        code = main(["sweep", "--config", cfg_file, "--out", out,
                     "--set", "sweep.axis=S", "--set", "sweep.values=2 4 8",
                     "--set", "sweep.st_fixed=true"])
        assert code == 0
        with open(out + "/sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        # S*T held at 2*64; P tracks N/S for permutation selection
        assert [(r["S"], r["T"], r["P"]) for r in rows] == \
               [("2", "64", "4"), ("4", "32", "2"), ("8", "16", "1")]

    def test_point_matches_run_with_minibatch(self, cfg_file, tmp_path):
        # a one-point T sweep repeats the run command's run, minibatch included
        opts = ["--set", "population.kind=logistic",
                "--set", "population.samples_per_client=16",
                "--set", "run.minibatch=4", "--set", "run.eval_every=4",
                "--set", "population.noise=none", "--set", "seeds.replications=1"]
        assert main(["run", "--config", cfg_file, "--out",
                     str(tmp_path / "r")] + opts) == 0
        assert main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=T", "--set", "sweep.values=64"] + opts) == 0
        with open(tmp_path / "r" / "metrics.csv") as fh:
            final = list(csv.DictReader(fh))[-1]["min_grad_norm_sq"]
        with open(tmp_path / "s" / "sweep.csv") as fh:
            (point,) = list(csv.DictReader(fh))
        assert point["min_grad_norm_sq_mean"] == final

    def test_empty_axis_exit_1(self, cfg_file, tmp_path):
        code = main(["sweep", "--config", cfg_file, "--out",
                     str(tmp_path / "s"), "--set", "sweep.axis=T",
                     "--set", "sweep.values="])
        assert code == 1
        assert not (tmp_path / "s").exists()

    def test_all_points_failing_exit_2(self, cfg_file, tmp_path):
        code = main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=T", "--set", "sweep.values=64 128",
                     "--set", "run.gamma=10"])
        assert code == 2
        # a numerical failure still reports its points
        with open(tmp_path / "s" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["runs"], r["failed"]) for r in rows] == [("0", "2")] * 2
        assert (tmp_path / "s" / "meta.txt").exists()

    def test_all_points_invalid_exit_1(self, cfg_file, tmp_path, capsys):
        # T = 0 is rejected as input at every replication: no numerical
        # failure, and a configuration error writes nothing
        code = main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=T", "--set", "sweep.values=0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "need T >= 1" in err and "every sweep point failed" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("kind, message", [
        (None, "missing required key [pattern] kind"),
        ("bogus", "unknown pattern kind: 'bogus'")])
    def test_bad_pattern_kind_fails_once_up_front(self, tmp_path, capsys,
                                                  kind, message):
        text = BASE_CFG.replace("kind = permutation\n",
                                "" if kind is None else f"kind = {kind}\n")
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=T", "--set", "sweep.values=64 128"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "s").exists()

    def test_invalid_and_diverged_points_exit_2(self, cfg_file, tmp_path):
        code = main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=T", "--set", "sweep.values=0 64",
                     "--set", "run.gamma=10"])
        assert code == 2

    def test_two_point_T_sweep_skips_slope_fit(self, cfg_file, tmp_path):
        # a log-log fit needs three points; two still make a sweep
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg_file, "--out", str(out),
                     "--set", "sweep.axis=T", "--set", "sweep.values=64 128"])
        assert code == 0
        assert "slope_fit" not in (out / "meta.txt").read_text()

    def test_repeated_T_skips_slope_fit(self, cfg_file, tmp_path):
        # three usable points at one T make a singular log-log fit
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg_file, "--out", str(out),
                     "--set", "sweep.axis=T", "--set", "sweep.values=64 64 64"])
        assert code == 0
        assert "slope_fit" not in (out / "meta.txt").read_text()

    def test_missing_sweep_section_exit_1(self, cfg_file, tmp_path, capsys):
        assert main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s")]) == 1
        assert "missing required key [sweep] axis" in capsys.readouterr().err

    def test_zero_S_on_permutation_exit_1(self, cfg_file, tmp_path, capsys):
        code = main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--set", "sweep.axis=S", "--set", "sweep.values=0 2"])
        assert code == 1
        assert "S | N" in capsys.readouterr().err


class TestCliDiagnose:
    def test_permutation_alignment(self, cfg_file, tmp_path):
        out = str(tmp_path / "d")
        code = main(["diagnose", "--config", cfg_file, "--out", out,
                     "--set", "diagnose.P_list=1 2 4 8"])
        assert code == 0
        with open(out + "/divergence.csv") as fh:
            rows = {int(r["P"]): r for r in csv.DictReader(fh)}
        assert float(rows[4]["delta2"]) <= 1e-28   # aligned N/S window
        assert float(rows[1]["delta2"]) > 0
        assert all(r["exact"] == "1" for r in rows.values())

    def test_exact_mode_needs_quadratic(self, cfg_file, tmp_path):
        code = main(["diagnose", "--config", cfg_file, "--out",
                     str(tmp_path / "d"), "--set", "population.kind=logistic"])
        assert code == 1

    def test_sampled_mode_draws_distinct_points_once(self, cfg_file, tmp_path,
                                                     monkeypatch):
        seen, used = [], []
        real_sample, real_report = cli.sample_offsets, cli.divergence_at_offsets

        def sample_spy(pop, points):
            seen.append(points)
            return real_sample(pop, points)

        def report_spy(offsets, sched, P):
            used.append(offsets)
            return real_report(offsets, sched, P)
        monkeypatch.setattr(cli, "sample_offsets", sample_spy)
        monkeypatch.setattr(cli, "divergence_at_offsets", report_spy)
        tables = []
        for k in (1, 4):
            out = tmp_path / f"d{k}"
            assert main(["diagnose", "--config", cfg_file, "--out", str(out),
                         "--set", "population.kind=logistic",
                         "--set", f"diagnose.points={k}"]) == 0
            tables.append((out / "divergence.csv").read_text())
        assert len(seen) == 2                        # one draw per command
        assert len(np.unique(seen[-1], axis=0)) == 4
        assert len(used) == 8
        assert all(o is used[-1] for o in used[-4:])   # the same points for every P
        assert tables[0] != tables[1]

    def test_sampled_mode_takes_gradients_once_per_point(self, cfg_file, tmp_path,
                                                         monkeypatch):
        calls = []
        real = fa.LogisticPopulation.client_grads
        monkeypatch.setattr(fa.LogisticPopulation, "client_grads",
                            lambda pop, x: calls.append(x) or real(pop, x))
        out = tmp_path / "d"
        assert main(["diagnose", "--config", cfg_file, "--out", str(out),
                     "--set", "population.kind=logistic", "--set", "diagnose.points=3",
                     "--set", "diagnose.P_list=1 2 4 8"]) == 0
        assert len(calls) == 3                       # one per point, not per P as well
        # the shared gradients give the rows of one call per P on fresh offsets
        cfg = fa.load_config(cfg_file, ["population.kind=logistic"])
        pop = build_population(cfg)
        sched = build_schedule(cfg, pop.N, 64, fa.derive_seed(3, "rep0"))
        pts = fa.ball_samples(np.zeros(pop.m), 2.0, 3, fa.derive_seed(3, "points"))
        with open(out / "divergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row, P in zip(rows, (1, 2, 4, 8)):
            rep = fa.divergence_at_offsets(fa.sample_offsets(pop, pts), sched, P)
            assert [row[k] for k in ("beta2", "nu2", "delta2", "d2")] == \
                [f"{v:.17g}" for v in (rep.beta2, rep.nu2, rep.delta2, rep.d2)]

    def test_sampled_quadratic_rows_are_exact(self, cfg_file, tmp_path):
        # a quadratic's offsets do not depend on x: far sample points must
        # not lose them to cancellation between gradients of size ~L|x|
        tables = []
        for points in (0, 3):
            out = tmp_path / f"d{points}"
            assert main(["diagnose", "--config", cfg_file, "--out", str(out),
                         "--set", f"diagnose.points={points}",
                         "--set", "run.x0_scale=1e17"]) == 0
            with open(out / "divergence.csv") as fh:
                tables.append(list(csv.DictReader(fh)))
        exact, sampled = tables
        assert [r.pop("exact") for r in exact] == ["1"] * len(exact)
        assert [r.pop("exact") for r in sampled] == ["0"] * len(sampled)
        assert sampled == exact

    def test_sampled_quadratic_makes_one_round_pass(self, cfg_file, tmp_path,
                                                    monkeypatch):
        # the offsets of every point are the same rows, and only delta2
        # depends on P: one per-round pass serves the whole P list, and
        # one window pass each P
        rounds, windows = [], []
        real_rounds, real_windows = analysis._round_quantities, analysis._window_bias
        monkeypatch.setattr(analysis, "_ROUND_MAXIMA", {})    # none kept from before
        monkeypatch.setattr(analysis, "_round_quantities",
                            lambda *a: rounds.append(a) or real_rounds(*a))
        monkeypatch.setattr(analysis, "_window_bias",
                            lambda *a: windows.append(a) or real_windows(*a))
        assert main(["diagnose", "--config", cfg_file, "--out", str(tmp_path / "d"),
                     "--set", "diagnose.points=16",
                     "--set", "diagnose.P_list=1 2 4 8"]) == 0
        assert len(rounds) == 1
        assert [a[2] for a in windows] == [1, 2, 4, 8]

    def test_non_finite_constants_exit_2(self, cfg_file, tmp_path, capsys):
        # logistic client gradients at |x| ~ 1e300 overflow when squared
        out = tmp_path / "d"
        code = main(["diagnose", "--config", cfg_file, "--out", str(out),
                     "--set", "population.kind=logistic",
                     "--set", "diagnose.points=2", "--set", "run.x0_scale=1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: P=1: ") and "Traceback" not in err
        assert not out.exists()

    def test_empty_P_list_exit_1(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["diagnose", "--config", cfg_file, "--out", str(out),
                     "--set", "diagnose.P_list="])
        assert code == 1
        assert ("error: bad override value for [diagnose] P_list: ''"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("points,spied", [(0, "divergence_exact"),
                                              (3, "sample_offsets")])
    def test_P_list_checked_before_any_work(self, cfg_file, tmp_path, capsys,
                                            monkeypatch, points, spied):
        calls = []
        real = getattr(cli, spied)
        monkeypatch.setattr(cli, spied, lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "d"
        code = main(["diagnose", "--config", cfg_file, "--out", str(out),
                     "--set", "diagnose.P_list=1 99999",
                     "--set", f"diagnose.points={points}"])
        assert code == 1
        assert "error: diagnose P=99999 outside [1, T=64]" in capsys.readouterr().err
        assert calls == [] and not out.exists()


class TestCliBounds:
    def test_hoeffding_csv(self, cfg_file, tmp_path):
        out = str(tmp_path / "b")
        code = main(["bounds", "--config", cfg_file, "--out", out,
                     "--set", "pattern.kind=independent",
                     "--set", "bounds.check=hoeffding",
                     "--set", "bounds.trials=500"])
        assert code == 0
        with open(out + "/bounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bound"] == "hoeffding"
        assert rows[0]["pass"] == "1"

    def test_wrong_pattern_exit_1(self, cfg_file, tmp_path):
        code = main(["bounds", "--config", cfg_file, "--out",
                     str(tmp_path / "b"), "--set", "bounds.check=chebyshev"])
        assert code == 1   # chebyshev needs a markov pattern

    @pytest.mark.parametrize("pattern,expect", [
        (["pattern.kind=independent", "bounds.trials=500"], "hoeffding"),
        (["pattern.kind=markov", "pattern.p_aa=0.9", "pattern.p_uu=0.8",
          "bounds.P_list=4 8 16 32"], "chebyshev"),
    ], ids=["independent", "markov"])
    def test_default_check_follows_pattern(self, cfg_file, tmp_path, pattern,
                                           expect):
        out = str(tmp_path / "b")
        args = ["bounds", "--config", cfg_file, "--out", out]
        for item in pattern:
            args += ["--set", item]
        assert main(args) == 0
        with open(out + "/bounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["bound"] for r in rows} == {expect}

    @pytest.mark.parametrize("check,reason", [
        ("hoeffding", "independent across rounds"),
        ("both", "unknown bounds check"),   # no pattern supports both
    ])
    def test_check_unfit_for_markov_exit_1(self, cfg_file, tmp_path, capsys,
                                           check, reason):
        code = main(["bounds", "--config", cfg_file, "--out",
                     str(tmp_path / "b"), "--set", "pattern.kind=markov",
                     "--set", "pattern.p_aa=0.9", "--set", "pattern.p_uu=0.8",
                     "--set", f"bounds.check={check}"])
        assert code == 1
        assert reason in capsys.readouterr().err


    def test_max_lag_beyond_schedule_exit_1(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["bounds", "--config", cfg_file, "--out", str(out),
                     "--set", "pattern.kind=markov", "--set", "pattern.p_aa=0.99",
                     "--set", "pattern.p_uu=0.99", "--set", "bounds.P_list=2 4",
                     "--set", "bounds.mixing_trials=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_lag must") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("pattern", [
        ["pattern.kind=independent"],
        ["pattern.kind=markov", "pattern.p_aa=0.9", "pattern.p_uu=0.8"],
    ], ids=["independent", "markov"])
    def test_N_beyond_int32_exit_1(self, cfg_file, tmp_path, capsys, pattern):
        # clients are stored as int32: rejected before a schedule is allocated
        out = tmp_path / "b"
        args = ["bounds", "--config", cfg_file, "--out", str(out),
                "--set", f"population.N={2**31}"]
        for item in pattern:
            args += ["--set", item]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need N < 2**31") and "Traceback" not in err
        assert not out.exists()

    def test_one_P_omits_variance_slope(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["bounds", "--config", cfg_file, "--out", str(out),
                     "--set", "pattern.kind=markov", "--set", "pattern.p_aa=0.9",
                     "--set", "pattern.p_uu=0.8", "--set", "bounds.P_list=16",
                     "--set", "bounds.mixing_trials=50"])
        assert code == 0
        assert capsys.readouterr().err == ""
        meta = (out / "meta.txt").read_text()
        assert "variance_slope" not in meta and "long_run_variance = " in meta

    @pytest.mark.parametrize("key,value,name", [
        ("bounds.trials", "0", "trials"),
        ("bounds.P", "0", "P"),
        ("bounds.c", "0", "c"),
        ("bounds.c", "2", "c"),
        ("bounds.chebyshev_c", "0", "c"),
        ("bounds.mixing_trials", "0", "trials"),
        ("bounds.max_lag", "-1", "max_lag"),
        ("bounds.P_list", "0 4", "P"),
    ])
    def test_out_of_range_parameter_exit_1(self, cfg_file, tmp_path, capsys,
                                           key, value, name):
        pattern = "independent" if key in ("bounds.trials", "bounds.P",
                                           "bounds.c") else "markov"
        code = main(["bounds", "--config", cfg_file, "--out", str(tmp_path / "b"),
                     "--set", f"pattern.kind={pattern}", "--set", "pattern.p_aa=0.9",
                     "--set", "pattern.p_uu=0.8", "--set", f"{key}={value}"])
        assert code == 1
        assert f"error: {name} must" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


class TestCliPlot:
    def test_two_series_svg(self, cfg_file, tmp_path):
        out = str(tmp_path / "o")
        main(["run", "--config", cfg_file, "--out", out])
        assert main(["plot", out + "/metrics.csv", "--out", out]) == 0
        svg = (tmp_path / "o" / "metrics.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "run 0" in svg and "run 1" in svg

    def test_plot_deterministic(self, cfg_file, tmp_path):
        out = str(tmp_path / "o")
        main(["run", "--config", cfg_file, "--out", out])
        main(["plot", out + "/metrics.csv", "--out", out])
        first = (tmp_path / "o" / "metrics.svg").read_bytes()
        main(["plot", out + "/metrics.csv", "--out", out])
        assert (tmp_path / "o" / "metrics.svg").read_bytes() == first

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("run,seed,t,f,grad_norm_sq,min_grad_norm_sq,is_boundary\n"
                       "0,1,notanint,1,1,1,0\n")
        assert main(["plot", str(bad), "--out", str(tmp_path)]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()


class TestSvg:
    def test_deterministic_and_structured(self):
        series = [("a", [1, 2, 3], [1.0, 0.5, 0.25]),
                  ("b", [1, 2, 3], [2.0, 1.0, 0.5])]
        one = line_chart(series, title="demo")
        two = line_chart(series, title="demo")
        assert one == two
        assert one.count("<polyline") == 2
        assert one.startswith("<svg ")

    def test_empty_input_rejected(self):
        with pytest.raises(fa.ChartError):
            line_chart([])
        with pytest.raises(fa.ChartError):
            line_chart([("a", [1, 2], [0.0, -1.0])])  # nothing positive on log y

    def test_log_axis_drops_nonpositive(self):
        svg = line_chart([("a", [1, 2, 3], [1.0, 0.0, 4.0])])
        # two surviving points -> one polyline with two coordinates
        poly = [ln for ln in svg.split("\n") if ln.startswith("<polyline")][0]
        assert poly.count(",") == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(fa.ChartError):
            line_chart([("a", [1, 2, 3], [1.0, 2.0])])


class TestPaperdemoShape:
    def test_single_cycle_interval_beats_every_round(self):
        # amplifying every round inside one availability group is worse than
        # amplifying once per full cycle
        cycle, _ = paperdemo_arms(0, 0)
        per_round, _ = paperdemo_arms(0, 0, P=1)
        assert cycle["amplified"] < per_round["amplified"]


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_quick_start_runs(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        exec(compile(block, "README.md", "exec"), {})
        assert float(capsys.readouterr().out) >= 0.0

    def test_config_block_loads_and_runs(self, tmp_path):
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
        cfg = fa.parse_config_text(block)
        assert build_population(cfg).N == cfg.get("population", "N")
        assert build_pattern(cfg).kind == cfg.get("pattern", "kind")
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
