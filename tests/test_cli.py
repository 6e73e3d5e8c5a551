import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgwalk import cli, io
from wgwalk.cli import main
from wgwalk.config import parse_run_config
from wgwalk.coupling import CouplingModel, build_coupling_matrix
from wgwalk.polarization import extract_h_subspace
from wgwalk.propagation import unitary
from wgwalk.twophoton import gamma_indistinguishable, similarity, visibility

from helpers import (
    complex_matrix_from_payload,
    paper_ellipse,
    read_table_csv,
    scaled_fanin_walk,
    traced_peak,
)


def base_config(out_dir, **overrides):
    cfg = {
        "layout": {
            "kind": "ellipse",
            "count": 6,
            "semi_major_um": 10.2,
            "semi_minor_um": 7.0,
        },
        "coupling": {
            "c0_per_mm": 1.0,
            "kappa_per_um": 0.5,
            "r0_um": 10.0,
            "beta_per_mm": 0.0,
        },
        "z_mm": 1.0,
        "input_ports": [1, 2],
        "trace_points": 50,
        "seed": 7,
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


FANIN_LAYOUT = {
    "kind": "fanin",
    "input": {"kind": "ellipse", "count": 6, "semi_major_um": 40.8, "semi_minor_um": 28.0},
    "intermediate": {"kind": "ellipse", "count": 6, "semi_major_um": 20.4, "semi_minor_um": 14.0},
    "final": {"kind": "ellipse", "count": 6, "semi_major_um": 10.2, "semi_minor_um": 7.0},
    "stage1_mm": 8.5,
    "stage2_mm": 1.0,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLayoutCommand:
    def test_paper_ellipse_layout_file(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["layout", "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "run" / "layout.json").read_text())
        assert payload["count"] == 6
        np.testing.assert_allclose(payload["positions_um"][0], [10.2, 0.0], atol=1e-12)
        distances = io.read_matrix_csv(tmp_path / "run" / "distances.csv")
        np.testing.assert_array_equal(distances, distances.T)

    def test_linear_layout_distance_extremes(self, tmp_path):
        cfg = base_config(
            tmp_path / "run",
            layout={"kind": "linear", "count": 6, "pitch_um": 127.0},
            input_ports=[1],
        )
        cfg_path = write_config(tmp_path, cfg)
        assert main(["layout", "--config", cfg_path]) == 0
        distances = io.read_matrix_csv(tmp_path / "run" / "distances.csv")
        assert distances.max() == 635.0

    def test_fanin_layout_profile_samples(self, tmp_path):
        cfg = base_config(tmp_path / "run", layout=FANIN_LAYOUT, steps=16)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["layout", "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "run" / "layout.json").read_text())
        assert payload["z_span_mm"] == [0.0, 9.5]
        assert len(payload["profile"]["z_mm"]) == 17
        np.testing.assert_allclose(
            payload["profile"]["positions_um"][-1],
            paper_ellipse().positions,
            atol=1e-9,
        )

    def test_malformed_config_names_offending_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "run")
        cfg["layout"].pop("semi_minor_um")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["layout", "--config", cfg_path]) == 2
        assert "layout.semi_minor_um" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["layout", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["layout", "--config", str(tmp_path / "absent.json")]) == 2

    def test_index_order_permutes_layout(self, tmp_path):
        cfg = base_config(tmp_path / "run")
        cfg["layout"]["index_order"] = [1, 2, 3, 6, 5, 4]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["layout", "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "run" / "layout.json").read_text())
        base = paper_ellipse().positions
        np.testing.assert_allclose(payload["positions_um"][3], base[5], atol=1e-12)

    def test_out_of_range_port_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "run", input_ports=[1, 9])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["layout", "--config", cfg_path]) == 2
        assert "input_ports" in capsys.readouterr().err

    # config numbers, one of them an entry of a per-guide list
    NUMBER_KEYS = [
        "z_mm",
        "layout.count",
        "hom.delay_min",
        "hom.delay_max",
        "hom.coherence_sigma",
        "coupling.c0_per_mm",
        "trace_points",
        "seed",
        "polarization.photometric_noise",
        "polarization.birefringence_per_mm",
    ]

    NON_FINITE = [math.nan, math.inf, -math.inf]
    # null is the default of neighbor_cutoff_um, so only non-finite values are wrong there
    BAD_NUMBERS = list(itertools.product(NUMBER_KEYS, [None] + NON_FINITE)) + list(
        itertools.product(["neighbor_cutoff_um"], NON_FINITE)
    )

    @pytest.mark.parametrize("key, value", BAD_NUMBERS)
    def test_null_or_non_finite_number_names_key(self, tmp_path, capsys, key, value):
        cfg = base_config(
            tmp_path / "run",
            hom={"delay_min": -4.0, "delay_max": 4.0, "points": 5, "coherence_sigma": 1.0},
            polarization={"birefringence_per_mm": [0.1] * 6, "photometric_noise": 0.01},
        )
        *sections, leaf = key.split(".")
        owner = cfg
        for section in sections:
            owner = owner[section]
        owner[leaf] = [value] + owner[leaf][1:] if isinstance(owner.get(leaf), list) else value
        assert main(["layout", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section", ["layout", "coupling"])
    def test_block_errors_share_one_form(self, tmp_path, capsys, section):
        key = {"layout": "semi_major_um", "coupling": "kappa_per_um"}[section]
        cfg = base_config(tmp_path / "run")
        cfg[section][key] = -0.5
        assert main(["layout", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: '{section}.{key}' must be positive\n"

    def test_null_neighbor_cutoff_means_no_cutoff(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run", neighbor_cutoff_um=None))
        assert main(["layout", "--config", cfg_path]) == 0

    def test_out_naming_a_file_is_path_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["layout", "--config", cfg_path, "--out", str(blocker)]) == 2
        assert str(blocker) in capsys.readouterr().err

    def test_config_naming_a_directory_is_path_error(self, tmp_path, capsys):
        assert main(["layout", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"z_mm": 1.0, "note": "\u00e9"}'.encode("latin-1"))
        assert main(["layout", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestPropagateCommand:
    def test_zero_length_gives_one_hot_trace(self, tmp_path):
        cfg = base_config(tmp_path / "run", z_mm=0.0, trace_points=3, input_ports=[3])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["propagate", "--config", cfg_path]) == 0
        columns, table = read_table_csv(tmp_path / "run" / "trace.csv")
        assert columns == ["z", "p_1", "p_2", "p_3", "p_4", "p_5", "p_6"]
        for row in table:
            np.testing.assert_allclose(row[1:], np.eye(6)[2], atol=1e-12)

    def test_mirror_paired_columns_identical_after_rounding(self, tmp_path):
        cfg = base_config(tmp_path / "run", input_ports=[1], z_mm=2.0, trace_points=80)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["propagate", "--config", cfg_path]) == 0
        _, table = read_table_csv(tmp_path / "run" / "trace.csv")
        # columns: z, p_1..p_6; mirror pairs for input 1 are (2,6) and (3,5)
        np.testing.assert_array_equal(table[:, 2].round(10), table[:, 6].round(10))
        np.testing.assert_array_equal(table[:, 3].round(10), table[:, 5].round(10))

    def test_unitary_json_matches_library(self, tmp_path):
        cfg = base_config(tmp_path / "run", input_ports=[1])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["propagate", "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "run" / "unitary.json").read_text())
        emitted = complex_matrix_from_payload(payload["matrix_re_im"])
        expected = unitary(
            build_coupling_matrix(paper_ellipse(), CouplingModel()), 1.0
        )
        np.testing.assert_allclose(emitted, expected, atol=1e-12)

    def test_deterministic_across_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "a"))
        assert main(["propagate", "--config", cfg_path]) == 0
        assert main(["propagate", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "unitary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestCorrelationsCommand:
    def test_end_to_end_matches_library(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["correlations", "--config", cfg_path]) == 0
        emitted = io.read_matrix_csv(tmp_path / "run" / "gamma_indistinguishable.csv")
        u = unitary(build_coupling_matrix(paper_ellipse(), CouplingModel()), 1.0)
        expected = gamma_indistinguishable(u, 0, 1)
        np.testing.assert_allclose(emitted, expected, atol=1e-12)
        bundle = json.loads((tmp_path / "run" / "correlations.json").read_text())
        assert bundle["input_ports"] == [1, 2]
        diff = io.read_matrix_csv(tmp_path / "run" / "gamma_difference.csv")
        gd = io.read_matrix_csv(tmp_path / "run" / "gamma_distinguishable.csv")
        np.testing.assert_allclose(diff, gd - emitted, atol=1e-14)

    def test_next_nearest_neighbour_inputs(self, tmp_path):
        cfg = base_config(tmp_path / "run", input_ports=[2, 4])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["correlations", "--config", cfg_path]) == 0
        bundle = json.loads((tmp_path / "run" / "correlations.json").read_text())
        assert bundle["input_ports"] == [2, 4]
        u = unitary(build_coupling_matrix(paper_ellipse(), CouplingModel()), 1.0)
        np.testing.assert_allclose(
            np.asarray(bundle["indistinguishable"]),
            gamma_indistinguishable(u, 1, 3),
            atol=1e-12,
        )

    def test_single_input_port_is_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "run", input_ports=[1])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["correlations", "--config", cfg_path]) == 2
        assert "input_ports" in capsys.readouterr().err


class TestHomCommand:
    def hom_config(self, out_dir, **kw):
        return base_config(
            out_dir,
            hom={"delay_min": -4.0, "delay_max": 4.0, "points": 41, "coherence_sigma": 1.0},
            **kw,
        )

    def test_scan_and_visibility_emitted(self, tmp_path):
        cfg_path = write_config(tmp_path, self.hom_config(tmp_path / "run"))
        assert main(["hom", "--config", cfg_path]) == 0
        columns, table = read_table_csv(tmp_path / "run" / "hom_scan.csv")
        assert columns[0] == "delay" and columns[1] == "C_1_1"
        assert table.shape == (41, 1 + 21)  # delay + 21 unordered pairs
        summary = json.loads((tmp_path / "run" / "visibility.json").read_text())
        assert len(summary["pairs"]) == 21
        values = [p["visibility"] for p in summary["pairs"]]
        assert all(v is None or -1e-9 <= v <= 1.0 + 1e-9 for v in values)

    def test_empty_delay_list_is_usage_error(self, tmp_path, capsys):
        cfg = self.hom_config(tmp_path / "run")
        cfg["hom"]["points"] = 0
        cfg_path = write_config(tmp_path, cfg)
        assert main(["hom", "--config", cfg_path]) == 2
        assert "hom.points" in capsys.readouterr().err

    def test_fit_on_two_distinct_delay_magnitudes_is_numerical_failure(self, tmp_path, capsys):
        cfg = self.hom_config(tmp_path / "run")
        cfg["hom"].update(points=4, visibility_mode="fit")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["hom", "--config", cfg_path]) == 3
        assert "three distinct |delay| values" in capsys.readouterr().err
        assert not (tmp_path / "run" / "hom_scan.csv").exists()

    def test_fit_mode_on_shipped_ellipse(self, tmp_path):
        cfg_path = _shipped_config(tmp_path, "ellipse_walk", hom={"visibility_mode": "fit"})
        assert main(["hom", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "visibility.json").read_text())
        assert summary["mode"] == "fit"
        written = [p["visibility"] for p in summary["pairs"]]
        assert len(written) == 21 and None not in written
        _, table = read_table_csv(tmp_path / "run" / "hom_scan.csv")
        expected = visibility(table[:, 0], table[:, 1:], 1.0, "fit")
        assert written == expected.tolist()

    def test_missing_hom_section_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["hom", "--config", cfg_path]) == 2


class TestTomographyCommand:
    def pol_config(self, out_dir, noise=0.0):
        return base_config(
            out_dir,
            polarization={
                "coupling_v": {"c0_per_mm": 0.4, "kappa_per_um": 0.5, "r0_um": 10.0},
                "birefringence_per_mm": [0.1, -0.2, 0.3, 0.0, 0.2, -0.1],
                "pol_rotation_per_mm": [0.05, 0.0, 0.1, 0.0, 0.05, 0.0],
                "loss_h": [1.0, 0.95, 1.0, 0.9, 1.0, 1.0],
                "loss_v": [0.9, 0.95, 1.0, 0.85, 1.0, 0.8],
                "photometric_noise": noise,
            },
        )

    def test_simulate_reconstruct_report_chain(self, tmp_path):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        record = io.read_record_csv(tmp_path / "run" / "tomography_record.csv")
        assert record.intensities.shape == (6, 6, 6, 6)
        assert main(["tomography", "--config", cfg_path, "--mode", "reconstruct"]) == 0
        payload = json.loads((tmp_path / "run" / "mueller.json").read_text())
        matrices = np.asarray(payload["matrices"])
        assert matrices.shape == (6, 6, 4, 4)
        assert main(["tomography", "--config", cfg_path, "--mode", "report"]) == 0
        ellipsoids = json.loads((tmp_path / "run" / "ellipsoids.json").read_text())
        assert len(ellipsoids["ellipsoids"]) == 6
        pdl = json.loads((tmp_path / "run" / "pdl.json").read_text())
        assert len(pdl["excess_v_loss_by_input_port"]) == 6

    def test_mode_defaults_to_simulate(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path]) == 0
        record_path = tmp_path / "run" / "tomography_record.csv"
        assert capsys.readouterr().out == f"wrote {record_path}\n"
        assert [p.name for p in (tmp_path / "run").iterdir()] == [record_path.name]

    def test_fan_in_tomography_recovers_the_scalar_chip(self, tmp_path):
        # equal H/V coupling, no imperfections: the H subspace of the
        # reconstructed Mueller array is |U|^2 of the chip, fan-in included
        cfg = base_config(tmp_path / "run", layout=FANIN_LAYOUT, steps=96, polarization={})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["propagate", "--config", cfg_path]) == 0
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        assert main(["tomography", "--config", cfg_path, "--mode", "reconstruct"]) == 0
        payload = json.loads((tmp_path / "run" / "mueller.json").read_text())
        matrices = np.asarray(payload["matrices"])
        assert payload["n_ports"] == 6
        h_subspace = extract_h_subspace(matrices)
        unitary_payload = json.loads((tmp_path / "run" / "unitary.json").read_text())
        u = complex_matrix_from_payload(unitary_payload["matrix_re_im"])
        np.testing.assert_allclose(h_subspace, np.abs(u) ** 2, rtol=0, atol=1e-10)

    def test_reconstruct_without_record_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path, "--mode", "reconstruct"]) == 2

    def test_incomplete_record_is_reconstruction_failure(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        record_path = tmp_path / "run" / "tomography_record.csv"
        lines = record_path.read_text().splitlines()
        record_path.write_text("\n".join(lines[:-40]) + "\n")
        assert main(["tomography", "--config", cfg_path, "--mode", "reconstruct"]) == 3
        assert "incomplete" in capsys.readouterr().err

    def simulated_record(self, tmp_path):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run", noise=0.01))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        record_path = tmp_path / "run" / "tomography_record.csv"
        return cfg_path, record_path, record_path.read_text().splitlines()

    @pytest.mark.parametrize("mode", ["reconstruct", "report"])
    def test_record_of_another_port_count_is_reconstruction_failure(self, tmp_path, capsys, mode):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        cfg = base_config(tmp_path / "run", polarization={})
        cfg["layout"]["count"] = 8
        eight_path = write_config(tmp_path, cfg, "eight.json")
        capsys.readouterr()
        assert main(["tomography", "--config", eight_path, "--mode", mode]) == 3
        err = capsys.readouterr().err
        assert "covers 6 ports" in err and "layout has 8" in err
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["tomography_record.csv"]

    @pytest.mark.parametrize(
        "mode, artifact", [("reconstruct", "mueller.json"), ("report", "ellipsoids.json")]
    )
    @pytest.mark.parametrize("override", [{"seed": 8}, {"noise": 0.02}])
    def test_record_of_another_config_is_reconstruction_failure(
        self, tmp_path, capsys, mode, artifact, override
    ):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run", noise=0.01))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        record_path = tmp_path / "run" / "tomography_record.csv"
        simulated = io.csv_digest(record_path)
        capsys.readouterr()
        ((flag, value),) = override.items()
        command = ["tomography", "--config", cfg_path, "--mode", mode, f"--{flag}", str(value)]
        assert main(command) == 3
        err = capsys.readouterr().err
        overridden = cli.load_run_config(cfg_path, **override)
        assert simulated in err and overridden.digest in err and overridden.digest != simulated
        assert "--seed" in err and "--noise" in err
        assert not (tmp_path / "run" / artifact).exists()
        # a record without a digest line is taken as it is
        lines = record_path.read_text().splitlines(keepends=True)
        record_path.write_text("".join(line for line in lines if "sha256" not in line))
        assert io.csv_digest(record_path) is None
        assert main(command) == 0
        assert (tmp_path / "run" / artifact).exists()

    def test_record_rows_accepted_in_any_order(self, tmp_path):
        _, record_path, lines = self.simulated_record(tmp_path)
        expected = io.read_record_csv(record_path).intensities
        head, body = lines[:3], lines[3:]
        shuffled = [body[k] for k in np.random.default_rng(5).permutation(len(body))]
        for rows in (body[::-1], shuffled):
            record_path.write_text("\n".join(head + rows) + "\n")
            np.testing.assert_array_equal(io.read_record_csv(record_path).intensities, expected)

    # case -> (edit of the fields on file line 11, expected stderr substring)
    BAD_ROWS = {
        "malformed": (lambda f: f[:4], "malformed record row"),
        "unparseable": (lambda f: f[:4] + ["x"], "malformed record row"),
        "unknown_state": (lambda f: f[:1] + ["X"] + f[2:], "unknown polarization state"),
        "two_letter_state": (lambda f: f[:1] + ["HV"] + f[2:], "unknown polarization state"),
        "two_letter_analyzer": (lambda f: f[:3] + ["HV"] + f[4:], "unknown polarization state"),
        "port_zero": (lambda f: ["0"] + f[1:], "port index out of range"),
        "duplicate_row": (lambda f: ["1", "H", "1", "H", f[4]], "repeated record entry"),
    }
    def run_with_bad_row(self, tmp_path, edit):
        cfg_path, record_path, lines = self.simulated_record(tmp_path)
        lines[10] = ",".join(edit(lines[10].split(",")))
        record_path.write_text("\n".join(lines) + "\n")
        return main(["tomography", "--config", cfg_path, "--mode", "reconstruct"])

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_record_row_is_reconstruction_failure(self, tmp_path, capsys, case):
        edit, message = self.BAD_ROWS[case]
        assert self.run_with_bad_row(tmp_path, edit) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "mueller.json").exists()

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_record_row_error_names_file_and_line(self, tmp_path, capsys, case):
        edit, _ = self.BAD_ROWS[case]
        assert self.run_with_bad_row(tmp_path, edit) == 3
        assert "tomography_record.csv:11:" in capsys.readouterr().err

    def test_repeated_entry_on_a_complete_record_is_reconstruction_failure(self, tmp_path, capsys):
        # the repeat would otherwise overwrite the noiseless 1,H,1,H intensity
        cfg_path = _shipped_config(tmp_path, "ellipse_walk")
        out = tmp_path / "run"
        assert main(["tomography", "--config", cfg_path, "--out", str(out)]) == 0
        record_path = out / "tomography_record.csv"
        lines = record_path.read_text().splitlines() + ["1,H,1,H,123.0"]
        record_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        command = ["tomography", "--config", cfg_path, "--out", str(out), "--mode", "reconstruct"]
        assert main(command) == 3
        err = capsys.readouterr().err
        assert f"tomography_record.csv:{len(lines)}: repeated record entry: '1,H,1,H,123.0'" in err
        assert not (out / "mueller.json").exists()

    def test_mistyped_port_is_incomplete_record(self, tmp_path, capsys):
        # a port far beyond the record must not size the array it is read into
        assert self.run_with_bad_row(tmp_path, lambda f: f[:2] + ["100000"] + f[3:]) == 3
        assert "incomplete" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_intensity_names_file_and_line(self, tmp_path, capsys, value):
        assert self.run_with_bad_row(tmp_path, lambda f: f[:4] + [value]) == 3
        err = capsys.readouterr().err
        assert "tomography_record.csv:11:" in err and "intensity" in err
        assert not (tmp_path / "run" / "mueller.json").exists()

    def test_failed_report_writes_no_artifacts(self, tmp_path, capsys):
        # zero H power at input port 1 leaves its excess-loss ratio undefined,
        # which is found after the ellipsoids have been computed
        cfg_path, record_path, lines = self.simulated_record(tmp_path)
        rows = [line.split(",") for line in lines]
        for fields in rows:
            if fields[:2] == ["1", "H"]:
                fields[4] = "0.0"
        record_path.write_text("\n".join(",".join(fields) for fields in rows) + "\n")
        assert main(["tomography", "--config", cfg_path, "--mode", "report"]) == 3
        assert "zero transmitted power" in capsys.readouterr().err
        assert not (tmp_path / "run" / "ellipsoids.json").exists()
        assert not (tmp_path / "run" / "pdl.json").exists()

    def test_record_naming_a_directory_is_path_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "run"))
        record_path = tmp_path / "run" / "tomography_record.csv"
        record_path.mkdir(parents=True)
        assert main(["tomography", "--config", cfg_path, "--mode", "reconstruct"]) == 2
        assert str(record_path) in capsys.readouterr().err

    def test_noisy_simulation_deterministic_for_fixed_seed(self, tmp_path):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "a", noise=0.01))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        assert (
            main(
                [
                    "tomography",
                    "--config",
                    cfg_path,
                    "--mode",
                    "simulate",
                    "--out",
                    str(tmp_path / "b"),
                ]
            )
            == 0
        )
        assert (tmp_path / "a" / "tomography_record.csv").read_bytes() == (
            tmp_path / "b" / "tomography_record.csv"
        ).read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        cfg_path = write_config(tmp_path, self.pol_config(tmp_path / "a", noise=0.01))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 0
        assert (
            main(
                [
                    "tomography",
                    "--config",
                    cfg_path,
                    "--mode",
                    "simulate",
                    "--seed",
                    "123",
                    "--out",
                    str(tmp_path / "b"),
                ]
            )
            == 0
        )
        assert (tmp_path / "a" / "tomography_record.csv").read_bytes() != (
            tmp_path / "b" / "tomography_record.csv"
        ).read_bytes()

    def test_missing_polarization_section(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["tomography", "--config", cfg_path, "--mode", "simulate"]) == 2

    def test_noise_override_does_not_invent_polarization_section(self, tmp_path, capsys):
        cfg_path = Path(__file__).resolve().parent.parent / "configs" / "fanin_walk.json"
        argv = ["tomography", "--config", str(cfg_path), "--out", str(tmp_path), "--noise", "0.01"]
        assert main(argv) == 2
        assert "polarization" in capsys.readouterr().err


class TestFidelityCommand:
    def test_identical_files_give_one(self, tmp_path, capsys):
        matrix = np.array([[0.2, 0.3], [0.3, 0.2]])
        path = tmp_path / "gamma.csv"
        io.write_matrix_csv(path, matrix)
        assert main(["fidelity", str(path), str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"S = 1.0\nwrote {tmp_path / 'fidelity.json'}\n"
        payload = json.loads((tmp_path / "fidelity.json").read_text())
        assert payload["similarity"] == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports_give_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        io.write_matrix_csv(a, np.array([[1.0, 0.0], [0.0, 0.0]]))
        io.write_matrix_csv(b, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["fidelity", str(a), str(b)]) == 0
        assert "S = 0.0" in capsys.readouterr().out
        assert (tmp_path / "fidelity.json").exists()

    def test_cross_check_against_library(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(9)
        a_matrix = rng.uniform(0.0, 1.0, (6, 6))
        b_matrix = rng.uniform(0.0, 1.0, (6, 6))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        io.write_matrix_csv(a, a_matrix)
        io.write_matrix_csv(b, b_matrix)
        assert main(["fidelity", str(a), str(b)]) == 0
        printed = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert printed == pytest.approx(similarity(a_matrix, b_matrix), abs=1e-12)

    def test_missing_file_is_config_error(self, tmp_path):
        a = tmp_path / "a.csv"
        io.write_matrix_csv(a, np.eye(2))
        assert main(["fidelity", str(a), str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize(
        "body",
        ["0.5,0.5\nnan,0.5\n", "0.5,0.5\n0.5\n", "0.5,0.5\n0.5,abc\n"],
        ids=["nan", "ragged", "text"],
    )
    def test_malformed_matrix_is_config_error(self, tmp_path, capsys, body):
        good = tmp_path / "good.csv"
        io.write_matrix_csv(good, np.eye(2))
        bad = tmp_path / "bad.csv"
        bad.write_text("# wgwalk 0.1.0\n" + body)
        out = tmp_path / "out"
        assert main(["fidelity", str(good), str(bad), "--out", str(out)]) == 2
        assert f"{bad}:3" in capsys.readouterr().err
        assert not (out / "fidelity.json").exists()

    def test_input_naming_a_directory_is_path_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        io.write_matrix_csv(a, np.eye(2))
        out = tmp_path / "out"
        assert main(["fidelity", str(a), str(tmp_path), "--out", str(out)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_negative_entries_are_numerical_failure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        io.write_matrix_csv(a, np.array([[1.0, -0.5], [0.0, 0.5]]))
        io.write_matrix_csv(b, np.eye(2))
        assert main(["fidelity", str(a), str(b)]) == 3

    def test_failed_write_reports_no_similarity(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        io.write_matrix_csv(a, np.eye(2))
        taken = tmp_path / "taken"
        taken.touch()
        assert main(["fidelity", str(a), str(a), "--out", str(taken)]) == 2
        assert capsys.readouterr().out == ""


class TestHeadersAndMeta:
    def test_csv_headers_carry_version_and_config_hash(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["layout", "--config", cfg_path]) == 0
        text = (tmp_path / "run" / "distances.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# wgwalk ")
        assert lines[1].startswith("# config sha256 ")

    def test_hash_independent_of_out_dir(self, tmp_path):
        cfg_a = write_config(tmp_path, base_config(tmp_path / "a"), "a.json")
        cfg_b = write_config(tmp_path, base_config(tmp_path / "b"), "b.json")
        assert main(["layout", "--config", cfg_a]) == 0
        assert main(["layout", "--config", cfg_b]) == 0
        assert main(["layout", "--config", cfg_a, "--out", str(tmp_path / "c")]) == 0
        line = lambda p: (p / "distances.csv").read_text().splitlines()[1]
        assert line(tmp_path / "a") == line(tmp_path / "b") == line(tmp_path / "c")

    def test_json_artifacts_refuse_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_json(tmp_path / "bad.json", {"value": float("nan")})

    LONG_NAN = np.append(np.zeros(5000), math.nan)  # above the JSON streaming threshold
    NEG_INF_TABLE = (["x"], np.full((1, 1), -math.inf))

    @pytest.mark.parametrize(
        "artifacts, bad",
        [
            ({"first.csv": np.eye(2), "second.json": {"value": math.nan}}, "second.json"),
            ({"first.csv": np.array([[1.0, math.inf]]), "second.json": {"v": 1.0}}, "first.csv"),
            ({"first.json": {"a": [LONG_NAN]}, "second.csv": np.eye(2)}, "first.json"),
            ({"first.json": {"a": 1.0}, "second.csv": NEG_INF_TABLE}, "second.csv"),
            ({"first.json": {"a": 1.0}, "second.json": {"b": [LONG_NAN]}}, "second.json"),
        ],
        ids=["json-after-csv", "csv-first", "json-first", "table-after-json", "array-after-json"],
    )
    def test_non_finite_artifact_writes_no_file(
        self, tmp_path, capsys, monkeypatch, artifacts, bad
    ):
        stage = ("a stage returning fixed artifacts", lambda cfg: artifacts)
        monkeypatch.setitem(cli._COMMANDS, "layout", stage)
        cfg_path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["layout", "--config", cfg_path]) == 3
        assert bad in capsys.readouterr().err
        assert not any(path.is_file() for path in (tmp_path / "run").rglob("*"))


class TestInputPortValidation:
    def test_duplicate_pair_is_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "run", input_ports=[2, 2])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["correlations", "--config", cfg_path]) == 2
        assert "distinct" in capsys.readouterr().err


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
NEEDS_PROC_TASKS = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task"
)


class TestStartup:
    def test_cli_import_does_not_load_scipy(self):
        # scipy's import alone took longer than any shipped command computes
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, wgwalk.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    @staticmethod
    def _after_import(**preset):
        """Thread count and OPENBLAS_NUM_THREADS after a fresh ``import wgwalk.cli``."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        env.update(preset, PYTHONPATH=str(src))
        probe = (
            "import os, wgwalk.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        return tuple(result.stdout.split())

    @NEEDS_PROC_TASKS
    def test_cli_import_pins_one_blas_thread(self):
        # no matrix is wider than 2N, where a BLAS worker pool only burns CPU
        assert self._after_import() == ("1", "1")

    @NEEDS_PROC_TASKS
    def test_user_thread_setting_wins(self):
        assert self._after_import(OMP_NUM_THREADS="2")[1] == "None"


def test_readme_library_example_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


# Property test: mutated shipped configs end in a stable exit code, and a
# command writes either clean artifacts or none at all.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DROP = object()
MUTANT_VALUES = st.one_of(
    st.sampled_from([DROP, None, math.nan, math.inf, -math.inf, True, "x", [1], 0, -1, -0.5]),
    st.integers(1, 8),
    st.floats(0.1, 8.0),
)
PROPERTY_COMMANDS = [
    ["layout"],
    ["propagate"],
    ["correlations"],
    ["hom"],
    ["tomography", "--mode", "simulate"],
]


def _key_paths(node, prefix=()):
    """Path of every key in a nested config, sections included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(["ellipse_walk", "fanin_walk"]))
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["steps"] = min(cfg.get("steps", 64), 64)  # keeps every example small
    for *sections, key in draw(st.lists(st.sampled_from(list(_key_paths(cfg))), min_size=1, max_size=3)):
        value = draw(MUTANT_VALUES)
        owner = cfg
        for section in sections:
            owner = owner.get(section) if isinstance(owner, dict) else None
        if not isinstance(owner, dict):
            continue  # an earlier mutation replaced the enclosing section
        if value is DROP:
            owner.pop(key, None)
        else:
            owner[key] = value
    return cfg


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_clean_artifact(path):
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_reject_constant)
        return
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for field in line.split(","):
            try:
                number = float(field)
            except ValueError:
                continue  # column names and polarization labels
            assert math.isfinite(number), f"{path.name}: {line!r}"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=mutated_configs())
def test_mutated_configs_exit_cleanly(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("mutant")
    cfg_path = write_config(work, cfg)
    for command in PROPERTY_COMMANDS:
        out = work / command[-1]
        code = main(command[:1] + ["--config", cfg_path, "--out", str(out)] + command[1:])
        assert code in (0, 2, 3)
        if code == 0:
            for path in out.iterdir():
                _assert_clean_artifact(path)
        else:
            assert not out.exists()


REUSE_STAGES = ["correlations", "hom"]


def _stage_bytes(out):
    """Bytes of each artifact in ``out`` that ``correlations`` or ``hom`` wrote."""
    if not out.exists():
        return {}
    skip = {"trace.csv", cli.TRANSFER_FILENAME}
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name not in skip}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=mutated_configs())
def test_mutated_configs_after_propagate_match_a_fresh_directory(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("chained")
    cfg_path = write_config(work, cfg)
    chained, fresh = work / "chained", work / "fresh"
    if main(["propagate", "--config", cfg_path, "--out", str(chained)]) != 0:
        return
    for command in REUSE_STAGES:
        codes = [main([command, "--config", cfg_path, "--out", str(out)]) for out in (chained, fresh)]
        assert codes[0] == codes[1]
    assert _stage_bytes(chained) == _stage_bytes(fresh)


def _shipped_config(tmp_path, name, **edits):
    """A shipped config with its top-level sections updated by ``edits``."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    for section, values in edits.items():
        cfg[section].update(values)
    return write_config(tmp_path, cfg, f"{name}.json")


def test_tiny_coherence_sigma_gives_finite_scan(tmp_path):
    cfg_path = _shipped_config(tmp_path, "ellipse_walk", hom={"coherence_sigma": 1e-300})
    assert main(["hom", "--config", cfg_path, "--out", str(tmp_path / "hom")]) == 0
    assert main(["correlations", "--config", cfg_path, "--out", str(tmp_path / "gamma")]) == 0
    columns, table = read_table_csv(tmp_path / "hom" / "hom_scan.csv")
    assert np.all(np.isfinite(table))
    ks, ls = np.triu_indices(6)
    assert columns[1:] == [f"C_{k + 1}_{l + 1}" for k, l in zip(ks, ls)]
    gi = io.read_matrix_csv(tmp_path / "gamma" / "gamma_indistinguishable.csv")[ks, ls]
    gd = io.read_matrix_csv(tmp_path / "gamma" / "gamma_distinguishable.csv")[ks, ls]
    delays, counts = table[:, 0], table[:, 1:]
    zero = delays == 0.0
    assert zero.sum() == 1
    np.testing.assert_allclose(counts[zero][0], gi, rtol=0, atol=1e-15)
    assert np.array_equal(counts[~zero], np.broadcast_to(gd, counts[~zero].shape))


def test_memory_of_hom_on_a_48_core_fan_in_is_bounded():
    # the fan-in product in batches of 32 segments and the (D, N, N) cube of
    # the scan with its copies traced 6.7 MB here; batches sized by matrix
    # elements and a scan of the 1,176 output pairs alone about 1.9 MB
    cfg = parse_run_config(scaled_fanin_walk(8))
    assert traced_peak(lambda: cli.cmd_hom(cfg)) <= 2_500_000


@pytest.mark.parametrize("name", ["ellipse_walk", "fanin_walk"])
@pytest.mark.parametrize("command", ["propagate", "correlations", "hom"])
def test_overflowing_coupling_law_is_numerical_failure(tmp_path, capsys, name, command):
    # exp(-2 (r - 400)) overflows at every core separation of these chips
    cfg_path = _shipped_config(tmp_path, name, coupling={"kappa_per_um": 2, "r0_um": 400})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "coupling law" in err and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["layout", "propagate"])
def test_impossible_allocation_is_numerical_failure(tmp_path, capsys, command):
    # numpy refuses arrays of 10^12 elements without allocating any memory
    out = tmp_path / "run"
    argv = ["--config", str(CONFIGS / "fanin_walk.json"), "--out", str(out)]
    assert main([command] + argv + ["--steps", str(10**12)]) == 3
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()


def _reuse_config(tmp_path, name):
    if name == "scaled_fanin_walk(4)":
        return write_config(tmp_path, scaled_fanin_walk(4))
    return write_config(tmp_path, json.loads((CONFIGS / f"{name}.json").read_text()))


class TestTransferReuse:
    """correlations and hom take U from the unitary.json that propagate wrote."""

    @staticmethod
    def run(cfg_path, out, commands, expect=0):
        for command in commands:
            assert main([command, "--config", cfg_path, "--out", str(out)]) == expect

    @pytest.mark.parametrize("name", ["ellipse_walk", "fanin_walk", "scaled_fanin_walk(4)"])
    def test_chained_outputs_equal_fresh_ones(self, tmp_path, name):
        cfg_path = _reuse_config(tmp_path, name)
        self.run(cfg_path, tmp_path / "chained", ["propagate"] + REUSE_STAGES)
        self.run(cfg_path, tmp_path / "fresh", REUSE_STAGES)
        chained = _stage_bytes(tmp_path / "chained")
        assert len(chained) == 6
        assert chained == _stage_bytes(tmp_path / "fresh")

    @pytest.mark.parametrize("name", ["ellipse_walk", "fanin_walk"])
    def test_matching_file_skips_the_product(self, tmp_path, monkeypatch, name):
        cfg_path = _reuse_config(tmp_path, name)
        self.run(cfg_path, tmp_path / "chained", ["propagate"])

        def refuse(*args, **kwargs):
            raise AssertionError("transfer matrix recomputed")

        monkeypatch.setattr(cli, "propagate_z_dependent", refuse)
        monkeypatch.setattr(cli, "unitary", refuse)
        self.run(cfg_path, tmp_path / "chained", REUSE_STAGES)
        with pytest.raises(AssertionError, match="recomputed"):
            main(["correlations", "--config", cfg_path, "--out", str(tmp_path / "fresh")])

    @pytest.mark.parametrize(
        "case",
        ["used", "other digest", "other version", "shape", "nan", "not unitary", "truncated"],
    )
    def test_unusable_file_falls_back_to_the_same_bytes(self, tmp_path, case):
        cfg_path = _reuse_config(tmp_path, "fanin_walk")
        self.run(cfg_path, tmp_path / "fresh", REUSE_STAGES)
        self.run(cfg_path, tmp_path / "chained", ["propagate"])
        text = (tmp_path / "chained" / cli.TRANSFER_FILENAME).read_text()
        document = json.loads(text)
        meta, pairs = document["meta"], document["matrix_re_im"]
        # U with its columns reversed is unitary too, and moves every artifact
        swapped = [row[::-1] for row in pairs]
        if case == "used":
            document["matrix_re_im"] = swapped
        elif case == "other digest":
            meta["config_sha256"], document["matrix_re_im"] = "0" * 64, swapped
        elif case == "other version":
            meta["tool_version"], document["matrix_re_im"] = "0.0.0", swapped
        elif case == "shape":
            pairs.pop()
        elif case == "nan":
            pairs[0][0][0] = math.nan
        elif case == "not unitary":
            document["matrix_re_im"] = [[[2 * re, 2 * im] for re, im in row] for row in pairs]
        edited = json.dumps(document) if case != "truncated" else text[: len(text) // 2]
        out = tmp_path / "edited"
        out.mkdir()
        (out / cli.TRANSFER_FILENAME).write_text(edited)
        self.run(cfg_path, out, REUSE_STAGES)
        fresh, got = _stage_bytes(tmp_path / "fresh"), _stage_bytes(out)
        if case == "used":
            assert all(got[name] != fresh[name] for name in fresh)
        else:
            assert got == fresh

    def test_steps_override_recomputes(self, tmp_path):
        cfg_path = _reuse_config(tmp_path, "fanin_walk")
        self.run(cfg_path, tmp_path / "chained", ["propagate"])
        for out in ("chained", "fresh"):
            argv = ["--config", cfg_path, "--out", str(tmp_path / out), "--steps", "128"]
            assert main(["correlations"] + argv) == 0
        assert _stage_bytes(tmp_path / "chained") == _stage_bytes(tmp_path / "fresh")

    @pytest.mark.parametrize("command", REUSE_STAGES)
    def test_bad_input_pair_exits_before_the_product(self, tmp_path, monkeypatch, capsys, command):
        # one input port and a coupling law that overflows: the port list is reported
        cfg = json.loads((CONFIGS / "fanin_walk.json").read_text())
        cfg["input_ports"] = [1]
        cfg["coupling"].update(kappa_per_um=2, r0_um=400)
        cfg_path = write_config(tmp_path, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("transfer matrix computed")

        monkeypatch.setattr(cli, "propagate_z_dependent", refuse)
        self.run(cfg_path, tmp_path / "run", [command], expect=2)
        assert "input_ports" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
