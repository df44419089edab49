import csv
import dataclasses
import math
import sys

import pytest

from qscissors import catalog
from qscissors.cli import (_KEYS, ConfigError, RunConfig, eval_number, main,
                           parse_complex)

QUARTIT_CONFIG = """
# published quartit truncation device
T = 1/3, 1/4, 1, 1/3, 1/2
xi = 0, 0, 0, 0, pi/2, 0
fock_inputs = 1, 1, 1
counts = 1, 1, 1
alpha = (0.4, 0)
"""

DEFAULT_SERIALIZED = """\
T = 1.0, 1.0, 1.0, 1.0, 1.0
xi = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
mirror_zeta = 0.0
fock_inputs = 1, 1, 1
counts = 1, 1, 1
field_kind = coherent
alpha = (0.4, 0.0)
tail_epsilon = 1e-12
eta_c = 0.7
r_dark_c = 100.0
eta_s = 0.88
r_dark_s = 10000.0
eta_r = 0.88
r_dark_r = 10000.0
tau_res = 1e-08
seeds = 20
max_iterations = 4000
convergence_tol = 1e-12
random_seed = 0
"""

# A value unlike the default for every RunConfig field.
EVERY_KEY_SET = dict(
    transmittances=(0.1, 0.2, 0.3, 0.4, 0.5), phases=(0.5, -1.0, 2.0, 0.25, 3.0, -0.125),
    mirror_zeta=0.75, fock_inputs=(2, 1, 0), counts=(0, 2, 1), field_kind="fock",
    alpha=-0.3 + 1.25j, tail_epsilon=1e-9, gammas=(0.6 + 0j, -0.25j, 0.5 - 0.5j),
    target_keep=(0, 2), eta_c=0.5, r_dark_c=20.0, eta_s=0.6, r_dark_s=30.0, eta_r=0.7,
    r_dark_r=40.0, tau_res=2e-8, seeds=3, max_iterations=50, convergence_tol=1e-6,
    random_seed=9, fix_t3=0.25)


class TestEvalNumber:
    def test_expressions(self):
        assert eval_number("1/3") == 1 / 3
        assert abs(eval_number("pi/2") - math.pi / 2) < 1e-15
        assert abs(eval_number("(3 - sqrt(3))/6") - (3 - math.sqrt(3)) / 6) < 1e-15
        assert eval_number("-0.5") == -0.5

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            eval_number("__import__('os')")
        with pytest.raises(ConfigError):
            eval_number("open('x')")
        with pytest.raises(ConfigError):
            eval_number("not a number")

    def test_rejects_power_before_evaluating(self):
        with pytest.raises(ConfigError, match="disallowed"):
            eval_number("2**3")

    @pytest.mark.parametrize("text", ["1/0", "sqrt(-1)", "cos(1e400)",
                                      "1" + "0" * 400 + "/3", "pi(1)", "sqrt + 1"])
    def test_evaluation_errors_are_config_errors(self, text):
        with pytest.raises(ConfigError, match="cannot evaluate"):
            eval_number(text)


class TestParseComplex:
    def test_pair(self):
        assert parse_complex("(0.6, -0.8)") == 0.6 - 0.8j

    def test_bare_real(self):
        assert parse_complex("0.25") == 0.25 + 0j

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_complex("(1, 2, 3)")


class TestRunConfig:
    def test_parse(self):
        cfg = RunConfig.parse(QUARTIT_CONFIG)
        assert cfg.transmittances == (1 / 3, 1 / 4, 1.0, 1 / 3, 1 / 2)
        assert cfg.phases[4] == math.pi / 2
        assert cfg.fock_inputs == (1, 1, 1)
        assert cfg.alpha == 0.4 + 0j

    def test_round_trip(self):
        cfg = RunConfig.parse(QUARTIT_CONFIG)
        cfg.target_keep = (0, 2)
        cfg.fix_t3 = 1.0
        again = RunConfig.parse(cfg.serialize())
        assert again == cfg

    def test_wrong_transmittance_count(self):
        with pytest.raises(ConfigError, match="'T'"):
            RunConfig.parse("T = 0.5, 0.5, 0.5, 0.5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.parse("mystery = 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            RunConfig.parse("T = 1, 1, 1, 1, 1\nxi = bogus\n")

    def test_key_table_covers_every_field(self):
        attributes = [attribute for attribute, _, _ in _KEYS.values()]
        assert sorted(attributes) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert set(EVERY_KEY_SET) == set(attributes)

    def test_default_serialization_is_pinned(self):
        assert RunConfig().serialize() == DEFAULT_SERIALIZED

    def test_round_trip_of_every_key(self):
        cfg, default = RunConfig(**EVERY_KEY_SET), RunConfig()
        for name in EVERY_KEY_SET:
            assert getattr(cfg, name) != getattr(default, name), name
        text = cfg.serialize()
        assert len(text.splitlines()) == len(_KEYS)
        assert RunConfig.parse(text) == cfg

    def test_explicit_empty_target_is_kept(self):
        cfg = RunConfig(target_keep=())
        assert "target_keep = \n" in cfg.serialize()
        assert RunConfig.parse(cfg.serialize()).target_keep == ()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(QUARTIT_CONFIG)
    return str(path)


class TestSubcommands:
    def test_matrix(self, config_path, capsys):
        assert main(["matrix", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "unitarity residual" in out

    def test_truncate(self, config_path, capsys):
        assert main(["truncate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "c_0 = +0.083333" in out
        assert "success probability" in out

    def test_truncate_csv_output(self, config_path, tmp_path):
        out_path = tmp_path / "result.csv"
        assert main(["truncate", "--config", config_path,
                     "--format", "csv", "--out", str(out_path)]) == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "c_re", "c_im", "out_re", "out_im"]
        assert abs(float(rows[1][1]) - 1 / 12) < 1e-10

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "catalog entries pass" in out
        assert "FAIL" not in out

    def test_verify_reports_failure(self, capsys, monkeypatch):
        broken = catalog.build_catalog()[:3]
        import dataclasses
        from qscissors.network import GqsdSpec
        entry = broken[0]
        t = list(entry.spec.transmittances)
        t[0] = 0.9
        broken[0] = dataclasses.replace(entry,
                                        spec=GqsdSpec(t, entry.spec.phases))
        monkeypatch.setattr(catalog, "build_catalog", lambda: broken)
        assert main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_optimize(self, tmp_path, capsys):
        cfg = RunConfig.parse(QUARTIT_CONFIG)
        cfg.fock_inputs = (1, 0, 0)
        cfg.counts = (0, 0, 1)
        cfg.seeds = 2
        cfg.max_iterations = 1000
        cfg.convergence_tol = 1e-10
        cfg.fix_t3 = 1.0
        path = tmp_path / "opt.cfg"
        path.write_text(cfg.serialize())
        assert main(["optimize", "--config", str(path)]) == 0
        assert "distinct solutions" in capsys.readouterr().out

    def test_optimize_seeded_from_config(self, tmp_path, capsys):
        cfg = RunConfig.parse(QUARTIT_CONFIG)
        cfg.seeds = 0
        cfg.max_iterations = 400
        cfg.convergence_tol = 1e-10
        cfg.fix_t3 = 1.0
        path = tmp_path / "seeded.cfg"
        path.write_text(cfg.serialize())
        assert main(["optimize", "--config", str(path),
                     "--seed-from-config"]) == 0
        out = capsys.readouterr().out
        assert "1 distinct solutions" in out
        assert "|c| = 0.0833" in out

    def test_fidelity(self, config_path, capsys):
        assert main(["fidelity", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "F_c" in out and "F_s" in out and "F_r" in out

    def test_missing_config_file(self, capsys):
        assert main(["matrix", "--config", "/nonexistent/run.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("T = 0.5, 0.5\n")
        assert main(["truncate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "T" in err

    @pytest.mark.parametrize("line", ["xi = 0, 0, 0, 0, 1e400, 0",
                                      "alpha = (1/0, 0)",
                                      "alpha = (1.7e308, 1.7e308)",
                                      "T = 1/3, 1/4, 1, 1/3, 2**-1",
                                      "field_kind = fock\ngammas = 1e400, 1",
                                      "fock_inputs = 1e400, 0, 0",
                                      "seeds = 1e400",
                                      "quotient_phase = true",
                                      "mirror_zeta = 1j", "mirror_zeta = None",
                                      "mirror_zeta = True", "mirror_zeta = 'abc'",
                                      "mirror_zeta = sqrt(1, 2)", "mirror_zeta = cos()",
                                      "alpha = (1, 2j)"])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(QUARTIT_CONFIG + line + "\n")
        assert main(["truncate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["max_iterations = 1e400", "max_iterations = 2.5",
                                      "seeds = 2.5", "seeds = 1/0", "fix_t3 = 1.5",
                                      "fix_t3 = -0.5", "fix_t3 = 1e400",
                                      "fock_inputs = 1.5, 0, 0", "target_keep = 0.5",
                                      "convergence_tol = 0"])
    def test_bad_search_setting_exits_2_with_one_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(QUARTIT_CONFIG + "seeds = 0\n" + line + "\n")
        assert main(["optimize", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["matrix", "truncate", "verify", "fidelity"])
    def test_seed_from_config_is_for_optimize_only(self, config_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, "--seed-from-config"])
        assert exc.value.code == 2
        assert "--seed-from-config" in capsys.readouterr().err

    def test_seed_off_the_fixed_t3_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seeded.cfg"
        path.write_text(QUARTIT_CONFIG.replace("T = 1/3, 1/4, 1,", "T = 1/3, 1/4, 0.5,")
                        + "seeds = 0\nfix_t3 = 1\n")
        assert main(["optimize", "--config", str(path), "--seed-from-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "T3" in err

    # the last case overflows nu = tau_res * r_dark_c to inf
    @pytest.mark.parametrize("lines", ["r_dark_c = 1e400", "tau_res = 1e400",
                                       "eta_s = 1e400",
                                       "tau_res = 1e300\nr_dark_c = 1e300"])
    def test_non_finite_detector_value_exits_2(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.cfg"
        path.write_text(QUARTIT_CONFIG + lines + "\n")
        assert main(["fidelity", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_probability_outcome_exits_2(self, tmp_path, capsys):
        # nu = 1e304 dark counts: no detector reports exactly one photon
        path = tmp_path / "dark.cfg"
        path.write_text(QUARTIT_CONFIG + "tau_res = 1e300\n")
        assert main(["fidelity", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["(12, 0)", "(40, 0)"])
    def test_truncate_large_coherent_amplitude(self, tmp_path, capsys, alpha):
        # the cutoff passes 170 terms (171! is no float) and exp(-|alpha|^2) underflows
        path = tmp_path / "bright.cfg"
        path.write_text(QUARTIT_CONFIG + f"alpha = {alpha}\n")
        assert main(["truncate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "c_0 = +0.083333" in captured.out and captured.err == ""

    def test_fidelity_vanishing_outcome_stops_before_evolving(self, tmp_path, capsys,
                                                              monkeypatch):
        from qscissors import cli
        monkeypatch.setattr(cli, "detected_blocks",
                            lambda *args: pytest.fail("the sector pass was called"))
        path = tmp_path / "bright.cfg"
        path.write_text(QUARTIT_CONFIG + "alpha = (10, 0)\n")
        assert main(["fidelity", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "vanishing probability" in err

    def test_fidelity_builds_no_output_state(self, config_path, capsys, monkeypatch):
        modules = [m for name, m in sys.modules.items() if name.startswith("qscissors")]
        for name in ("evolve", "embed_input"):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        lambda *args, name=name: pytest.fail(f"{name} called"))
        assert main(["fidelity", "--config", config_path]) == 0
        assert "F_r" in capsys.readouterr().out

    def test_quotient_phase_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["truncate", "--quotient-phase", "true"])
        assert exc.value.code == 2
        assert "quotient_phase" not in RunConfig().serialize()

    def test_truncate_computes_amplitudes_once(self, config_path, capsys, monkeypatch):
        from qscissors import scissors
        original, calls = scissors.projected_amplitudes, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scissors, "projected_amplitudes", counted)
        assert main(["truncate", "--config", config_path]) == 0
        assert len(calls) == 1

    def test_defaults_without_config(self, capsys):
        assert main(["matrix"]) == 0
