import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ptlame import cli
from ptlame import elliptic as ell
from ptlame import floquet as flq
from ptlame import invariants as inv
from ptlame import potentials as pot
from ptlame import spectra as spc
from ptlame.cli import build_spec

from conftest import count_batches, same_spec


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return lines[0], cols


def _header(meta):
    return dict(item.split("=", 1) for item in meta.lstrip("# ").split())


def _recorded_tols(monkeypatch):
    """The (rtol, atol) of every Floquet integration from here on."""
    tols = []
    propagate = flq._propagate

    def record(spec, es):
        tols.append((flq.RTOL, flq.ATOL))
        return propagate(spec, es)

    monkeypatch.setattr(flq, "_propagate", record)
    return tols


def _edges_args(*argv):
    return cli._parser().parse_args(["edges", *argv])


class TestBuildSpec:
    def test_default_is_plain_lame(self):
        spec = build_spec(_edges_args())
        assert same_spec(spec, pot.Lame(3, 0.75))

    def test_op_order_matters(self):
        a = build_spec(_edges_args("--a", "3", "--pt", "--partner"))
        b = build_spec(_edges_args("--a", "3", "--partner", "--pt"))
        fa, fb = pot.compiled_value_fn(a), pot.compiled_value_fn(b)
        assert max(abs(fa(x) - fb(x)) for x in np.linspace(0.1, 2.0, 11)) > 1e-2

    def test_rejects_bad_beta(self):
        with pytest.raises(cli.ConfigError):
            build_spec(_edges_args("--pt", "--beta", "0"))

    def test_rejects_partner_without_closed_form(self):
        with pytest.raises(cli.ConfigError):
            build_spec(_edges_args("--a", "2", "--pt", "--partner"))

    def test_shift_zero_moves_ground_to_zero(self):
        spec = build_spec(_edges_args("--a", "3", "--pt", "--shift-zero"))
        rows = pot.predicted_edges(spec)
        assert abs(rows[0][0]) < 1e-12


    def test_registry_specs_are_the_cli_specs(self):
        # selfcheck checks exactly the specs `edges --pt --shift-zero` prints
        s = inv.specs(0.75, 0.5)
        for fam in spc.ptlame_families:
            argv = ["--a", str(fam[1]), "--b", str(fam[2]), "--shift-zero", "--pt"]
            assert same_spec(build_spec(_edges_args(*argv)), s[fam])
            assert same_spec(build_spec(_edges_args(*argv, "--partner")), s[fam + ("partner",)])
        assert same_spec(build_spec(_edges_args("--a", "3", "--partner", "--pt", "--shift-zero")), s["a3-exchanged"])

class TestRepeatedCalls:
    def test_two_calls_share_no_state(self, tmp_path, monkeypatch):
        # the parser is built once; each call parses into a new namespace, so
        # --pt does not carry over and each call resolves its own range
        assert cli._parser() is cli._parser()
        searched = []
        find = flq.find_band_edges

        def record(spec, e_min, e_max):
            searched.append((spec, e_min, e_max))
            return find(spec, e_min, e_max)

        monkeypatch.setattr(flq, "find_band_edges", record)
        headers = []
        for argv in (["--pt"], []):
            out = tmp_path / "edges.csv"
            assert cli.main(["edges", "--a", "1", *argv, "--out", str(out)]) == 0
            headers.append(_header(_read_csv(out)[0]))
        (pt, *_), (plain, e_min, e_max) = searched
        assert pt.beta == 0.5 and same_spec(plain, pot.Lame(1, 0.75))
        rows = [e for e, _ in pot.predicted_edges(plain)]
        assert (e_min, e_max) == (min(rows) - 0.5, max(rows) + 0.5)
        assert (float(headers[1]["emin"]), float(headers[1]["emax"])) == (e_min, e_max)
        assert headers[0]["ops"] == "['pt']" and headers[1]["ops"] == "[]"
        assert headers[0]["emax"] != headers[1]["emax"]


class TestSamplePotential:
    def test_default_figure_data(self, tmp_path):
        out = tmp_path / "fig.csv"
        rc = cli.main(["sample-potential", "--pt", "--shift-zero", "--out", str(out)])
        assert rc == 0
        meta, cols = _read_csv(out)
        assert "m=0.75" in meta and "beta=0.5" in meta
        xs = [float(v) for v in cols["x"]]
        re_v = [float(v) for v in cols["re_v"]]
        im_v = [float(v) for v in cols["im_v"]]
        n = len(xs)
        assert n == 800
        # PT symmetry: imaginary part vanishes at x = 0 and is odd around it
        assert abs(im_v[0]) < 1e-10
        for j in (5, 100, 333):
            assert abs(im_v[j] + im_v[n - j]) < 1e-9
        # the real part repeats with the printed period 2K'(0.75) = 3.3715
        L = xs[400]  # the grid covers two periods in 800 steps
        assert abs(L - 3.3715) < 5e-5
        for j in (3, 57, 250):
            assert abs(re_v[j] - re_v[j + 400]) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sample-potential", "--pt", "--n", "50", "--out", str(a)])
        cli.main(["sample-potential", "--pt", "--n", "50", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_header_states_no_tolerances(self, tmp_path, monkeypatch):
        # nothing is integrated, so no integrator tolerance is stated
        tols = _recorded_tols(monkeypatch)
        out = tmp_path / "fig.csv"
        assert cli.main(["sample-potential", "--pt", "--n", "5", "--out", str(out)]) == 0
        meta, _ = _read_csv(out)
        assert not tols and not [k for k in _header(meta) if k.endswith(("rtol", "atol"))]

    def test_header_states_only_the_options_it_reads(self, tmp_path):
        # no tolerance or energy range is read, so none is stated; n is the
        # points per period
        out = tmp_path / "fig.csv"
        assert cli.main(["sample-potential", "--n", "5", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        assert not {"tol", "emin", "emax", "points_per_period"} & set(header)
        assert header["n"] == "5"

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "fig.json"
        rc = cli.main(["sample-potential", "--pt", "--n", "20", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "columns"}
        assert doc["meta"]["command"] == "sample-potential"
        assert "integrator_rtol" not in doc["meta"]
        assert len(doc["columns"]["x"]) == 40
        assert len(doc["columns"]["re_v"]) == len(doc["columns"]["im_v"]) == 40

    @pytest.mark.parametrize("a,b", [(3, 0), (2, 1)])
    def test_json_columns_parse_back_bit_for_bit(self, a, b, tmp_path):
        argv = ["sample-potential", "--a", str(a), "--b", str(b), "--pt", "--partner", "--shift-zero"]
        out = tmp_path / "fig.json"
        assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
        cols = json.loads(out.read_text())["columns"]
        spec = build_spec(cli._parser().parse_args(argv))
        xs = np.linspace(0.0, 2.0 * spec.period, 800, endpoint=False)
        vals = pot.compiled_value_fn(spec)(xs)
        for name, ref in (("x", xs), ("re_v", vals.real), ("im_v", vals.imag)):
            assert np.array_equal(np.array(cols[name], dtype=float), ref)


class TestEdges:
    def test_a1_table(self, tmp_path):
        out = tmp_path / "edges.csv"
        rc = cli.main(["edges", "--a", "1", "--pt", "--shift-zero", "--out", str(out)])
        assert rc == 0
        meta, cols = _read_csv(out)
        assert "verdict=PASS" in meta
        assert cols["period_class"] == ["P", "A", "A"]
        assert [round(float(v), 6) for v in cols["energy_numeric"]] == [0.0, 0.75, 1.0]
        assert all(float(d) < 1e-6 for d in cols["abs_diff"])

    def test_gate_fails_when_edges_are_missed(self, tmp_path):
        out = tmp_path / "edges.csv"
        with pytest.warns(UserWarning, match="range is probably too small"):
            rc = cli.main(["edges", "--a", "1", "--pt", "--shift-zero",
                           "--emin", "-0.3", "--emax", "0.5", "--out", str(out)])
        assert rc == 3
        meta, _ = _read_csv(out)
        assert "verdict=FAIL" in meta

    def test_warns_when_range_too_small(self, tmp_path):
        # [-0.3, 0.5] holds one of the three a=1 edges and no closed gap
        out = tmp_path / "edges.csv"
        with pytest.warns(UserWarning, match=r"found 1 simple band edges but the base family has 3 "
                                             r"\(closed gaps found: 0\): the energy range is probably too small, "
                                             "or a narrow open gap was reported closed"):
            cli.main(["edges", "--a", "1", "--pt", "--shift-zero",
                      "--emin", "-0.3", "--emax", "0.5", "--out", str(out)])

    def test_warns_when_a_narrow_gap_is_reported_closed(self, tmp_path):
        # the a=3 PT top gap is 1.2e-7 wide at m = 0.993 and is found open,
        # with no warning; at m = 0.995 it is 4.4e-8 wide and is reported
        # closed on an ample range, and the warning counts that closed gap
        out = tmp_path / "edges.csv"
        argv = ["edges", "--a", "3", "--pt", "--shift-zero", "--out", str(out), "--m"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "0.993"]) == 0
        assert _read_csv(out)[1]["multiplicity"] == ["1"] * 7
        with pytest.warns(UserWarning, match=r"found 5 simple band edges but the base family has 7 "
                                             r"\(closed gaps found: 1\): the energy range is probably too small, "
                                             "or a narrow open gap was reported closed"):
            assert cli.main([*argv, "0.995"]) == 3
        assert _read_csv(out)[1]["multiplicity"] == ["1"] * 5 + ["2"]

    def test_without_closed_forms_all_2a_plus_1_edges_pass(self, tmp_path, monkeypatch):
        # Lame potentials with a = 2, 4, 5, 6 and 7 and the (4,1) and (4,3)
        # potentials have no closed-form table; over the default range each
        # finds its 2a + 1 simple edges, and the count passes
        found = []
        find = flq.find_band_edges

        def record(*args):
            found[:] = find(*args)
            return found

        monkeypatch.setattr(flq, "find_band_edges", record)
        out = tmp_path / "edges.csv"
        for argv, count in ((["--a", "2"], 5), (["--a", "6", "--m", "0.3"], 13), (["--a", "4", "--m", "0.05"], 9),
                            (["--a", "4", "--b", "1", "--m", "0.75"], 9), (["--a", "7", "--m", "0.75"], 15),
                            (["--a", "5", "--m", "0.9"], 11), (["--a", "4", "--b", "3", "--m", "0.5"], 9)):
            assert cli.main(["edges", *argv, "--out", str(out)]) == 0
            meta, _ = _read_csv(out)
            assert "verdict=PASS" in meta and "analytic_available=False" in meta
            assert sum(1 for e in found if e.multiplicity == 1) == count

    def test_without_closed_forms_missed_edges_fail(self, tmp_path):
        # [0.5, 3] holds two of the five a=2 edges: the count fails the gate,
        # with no closed forms to pair against
        out = tmp_path / "edges.csv"
        with pytest.warns(UserWarning, match="found 2 simple band edges but the base family has 5"):
            rc = cli.main(["edges", "--a", "2", "--emin", "0.5", "--emax", "3", "--out", str(out)])
        assert rc == 3
        meta, cols = _read_csv(out)
        assert "verdict=FAIL" in meta
        assert len(cols["index"]) == 2

    def test_spurious_edge_does_not_shift_the_pairing(self, tmp_path, monkeypatch):
        # one extra numeric edge between the true ones: each closed-form edge
        # still meets its own numeric partner, and the count alone fails
        real = [(0.0 + 1e-9, "P"), (0.75 + 2e-9, "A"), (1.0 - 3e-9, "A")]
        stub = sorted(real + [(0.5, "A")])
        monkeypatch.setattr(cli.flq, "find_band_edges", lambda *args, **kwargs: [
            cli.flq.NumericBandEdge(e, c, complex(2.0 if c == "P" else -2.0)) for e, c in stub])
        out = tmp_path / "edges.csv"
        rc = cli.main(["edges", "--a", "1", "--pt", "--shift-zero", "--out", str(out)])
        assert rc == 3
        meta, cols = _read_csv(out)
        assert "verdict=FAIL" in meta
        diffs = [float(d) for d in cols["abs_diff"]]
        assert cols["energy_analytic"][1] == "" and np.isnan(diffs[1])
        assert np.allclose([diffs[0], diffs[2], diffs[3]], [1e-9, 2e-9, 3e-9], rtol=1e-3, atol=1e-15)
        assert float(meta.split("max_abs_diff=")[1].split()[0]) < 1e-8

    def test_no_row_nearer_an_edge_than_its_pair(self, tmp_path, monkeypatch):
        # the top a=3 gap at m = 0.985 is 1.2e-6 wide: its A rows 9e-7 outside
        # it are within --tol of their closed-form edges, but a closed-gap row
        # at its middle lies nearer both, so a check that pairs each edge with
        # its nearest row of any kind pairs both with that row; the verdict
        # fails with it (it passed while each edge met only simple rows of its
        # class)
        argv = ["--a", "3", "--pt", "--shift-zero", "--m", "0.985"]
        (*low, (e5, _), (e6, _)) = pot.predicted_edges(build_spec(_edges_args(*argv)))
        assert 0.0 < e6 - e5 < 1.3e-6
        rows = [(e, c, 1) for e, c in low] + [(e5 - 9e-7, "A", 1), (0.5 * (e5 + e6), "A", 2), (e6 + 9e-7, "A", 1)]
        monkeypatch.setattr(cli.flq, "find_band_edges", lambda *args: [
            cli.flq.NumericBandEdge(e, c, complex(2.0 if c == "P" else -2.0), k) for e, c, k in rows])
        out = tmp_path / "edges.csv"
        assert cli.main(["edges", *argv, "--out", str(out)]) == 3
        meta, cols = _read_csv(out)
        assert "verdict=FAIL" in meta
        assert max(float(d) for d in cols["abs_diff"] if d != "nan") < 1e-6

    @staticmethod
    def _a1_stub_table(tmp_path, monkeypatch, rows):
        """`edges` on the shifted a=1 PT spec with find_band_edges returning
        ``rows`` of (energy, class, multiplicity), at a --tol every stub row
        is within; returns (exit code, header, columns)."""
        monkeypatch.setattr(cli.flq, "find_band_edges", lambda *args: [
            cli.flq.NumericBandEdge(e, c, complex(2.0 if c == "P" else -2.0), k) for e, c, k in rows])
        out = tmp_path / "edges.csv"
        rc = cli.main(["edges", "--a", "1", "--pt", "--shift-zero", "--tol", "1", "--out", str(out)])
        meta, cols = _read_csv(out)
        return rc, _header(meta), cols

    # each closed-form edge of the a=1 table (0 P, 0.75 A, 1 A) is paired with
    # its nearest row; a pair that is not a distinct simple row of its class
    # fails the verdict, and the table shows each edge at that row
    def test_closed_gap_row_nearest_an_edge_fails(self, tmp_path, monkeypatch):
        rows = [(0.0, "P", 1), (0.75 - 1e-7, "A", 1), (0.75 + 1e-9, "A", 2), (1.0, "A", 1)]
        rc, header, cols = self._a1_stub_table(tmp_path, monkeypatch, rows)
        assert rc == 3 and header["verdict"] == "FAIL"
        assert cols["energy_analytic"] == ["0", "", "0.75", "1"]

    def test_wrong_class_row_nearest_an_edge_fails(self, tmp_path, monkeypatch):
        rows = [(0.0, "P", 1), (0.75 + 1e-9, "P", 1), (1.0, "A", 1)]
        rc, header, cols = self._a1_stub_table(tmp_path, monkeypatch, rows)
        assert rc == 3 and header["verdict"] == "FAIL"
        assert cols["energy_analytic"] == ["0", "0.75", "1"]

    def test_two_edges_sharing_a_row_fail(self, tmp_path, monkeypatch):
        # 0.85 is the nearest row to both A edges; the row holds one of them
        rows = [(0.0, "P", 1), (0.85, "A", 1), (1.2, "A", 1)]
        rc, header, cols = self._a1_stub_table(tmp_path, monkeypatch, rows)
        assert rc == 3 and header["verdict"] == "FAIL"
        assert cols["energy_analytic"][0] == "0" and cols["energy_analytic"][1] in ("0.75", "1")
        assert cols["energy_analytic"][2] == ""

    def test_no_rows_fail(self, tmp_path, monkeypatch):
        with pytest.warns(UserWarning, match=r"found 0 simple band edges but the base family has 3 "):
            rc, header, cols = self._a1_stub_table(tmp_path, monkeypatch, [])
        assert rc == 3 and header["verdict"] == "FAIL" and float(header["max_abs_diff"]) == 0.0
        assert cols["index"] == [] and cols["energy_analytic"] == []

    @pytest.mark.parametrize("shift_zero", [False, True], ids=["raw", "shift-zero"])
    @pytest.mark.parametrize("ops", [(), ("--pt",), ("--partner",), ("--pt", "--partner"),
                                     ("--partner", "--pt"), ("--pt", "--partner", "--partner")],
                             ids=lambda ops: "-".join(op.strip("-") for op in ops) or "plain")
    def test_every_wrapper_order_matches_floquet(self, ops, shift_zero, tmp_path):
        # the predicted edges of every composition, shifts above and under
        # the PT transform included, against the Floquet engine; at m = 0.6321
        # no a=1 edge lands on a scan point
        out = tmp_path / "edges.csv"
        argv = ["edges", "--a", "1", "--m", "0.6321", "--beta", "0.7", *ops, "--out", str(out)]
        assert cli.main(argv + ["--shift-zero"] * shift_zero) == 0
        meta, cols = _read_csv(out)
        assert "verdict=PASS" in meta and len(cols["energy_analytic"]) == 3

    def test_header_states_the_integrator_tolerances(self, tmp_path, monkeypatch):
        # the header's tolerances are the ones find_band_edges integrated at
        tols = _recorded_tols(monkeypatch)
        out = tmp_path / "edges.csv"
        assert cli.main(["edges", "--a", "3", "--pt", "--shift-zero", "--out", str(out)]) == 0
        meta, _ = _read_csv(out)
        header = _header(meta)
        assert tols and set(tols) == {(float(header["integrator_rtol"]), float(header["integrator_atol"]))}

    def test_header_states_the_energy_range_searched(self, tmp_path):
        out = tmp_path / "edges.csv"
        assert cli.main(["edges", "--a", "3", "--pt", "--shift-zero", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        top = max(e for e, _ in pot.predicted_edges(build_spec(_edges_args("--a", "3", "--pt", "--shift-zero"))))
        assert (float(header["emin"]), float(header["emax"])) == (-0.5, top + 0.5)

    def test_closed_gap_row_has_multiplicity_two(self, tmp_path):
        # the real (2,1) potential's closed P gap near E = 5.78996 is one row
        # of multiplicity 2, beside its five simple edges
        out = tmp_path / "edges.csv"
        assert cli.main(["edges", "--a", "2", "--b", "1", "--m", "0.75", "--out", str(out)]) == 0
        _, cols = _read_csv(out)
        assert list(cols)[-2:] == ["period_class", "multiplicity"]
        [(e, c)] = [(float(e), c) for e, c, k in zip(cols["energy_numeric"], cols["period_class"], cols["multiplicity"])
                    if k == "2"]
        assert abs(e - 5.78996) < 1e-5 and c == "P"
        assert cols["multiplicity"].count("1") == 5

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["edges", "--a", "1", "--b", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_integration_error_exit_code(self, capsys):
        # the entries overflow near E = -28620 and the Wronskian check raises:
        # one stderr line and exit 4, not a traceback
        assert cli.main(["edges", "--a", "1", "--emin=-1e5", "--emax", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("integration error: Wronskian drift") and captured.err.count("\n") == 1


    def test_paired_integration_error_names_the_side(self, capsys):
        # the PT side's Chebyshev points overflow first in the shared batch
        assert cli.main(["scan", "--a", "1", "--pt", "--paired", "--emin=-1e5", "--emax", "3"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("integration error: Wronskian drift of PT lame(a=1, b=0, m=0.75) at beta=0.5: ")
        assert " at E=-" in err and err.count("\n") == 1


class TestJsonOutput:
    """JSON has no NaN: a non-finite float is written null, CSV keeps nan."""

    @staticmethod
    def _strict(text):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize("argv", [
        ["edges", "--a", "2", "--b", "1", "--m", "0.75"],
        ["dispersion", "--a", "2", "--pt", "--emin", "-5.5", "--emax", "-5.0", "--n", "4"],
    ], ids=["edges", "dispersion"])
    def test_no_nan_token(self, argv, tmp_path):
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
        doc = self._strict(out.read_text())
        assert None in doc["columns"]["abs_diff"]
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        _, cols = _read_csv(tmp_path / "out.csv")
        assert "nan" in cols["abs_diff"]

    def test_infinite_and_numpy_values(self, tmp_path, monkeypatch):
        # a row's value may be infinite, and a tolerance a numpy scalar
        monkeypatch.setattr(inv, "REGISTRY", (inv.Invariant("infinite", lambda m, beta: math.inf, 0.5),
                                              inv.Invariant("numpy", lambda m, beta: np.float64(0.25),
                                                            np.float64(0.5))))
        out = tmp_path / "selfcheck.json"
        assert cli.main(["selfcheck", "--format", "json", "--out", str(out)]) == 3
        cols = self._strict(out.read_text())["columns"]
        assert (cols["value"], cols["tol"], cols["verdict"]) == ([None, 0.25], [0.5, 0.5], ["FAIL", "PASS"])


class TestUsageErrors:
    """A bad --n or energy range is a configuration error, exit 2, raised
    before any integration; --n belongs to the commands that read it."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "1"],
        ["scan", "--emin", "5", "--emax", "1"],
        ["edges", "--emin", "3", "--emax", "1"],
        ["sample-potential", "--n", "-3"],
        ["dispersion", "--n", "0"],
        ["edges", "--m", "1.5"],
        ["edges", "--a", "1", "--emax", "inf"],
    ])
    def test_config_error(self, argv, capsys, monkeypatch):
        def no_integration(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(flq, "_propagate", no_integration)
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["edges", "--a", "1"], ["selfcheck"], ["sample-potential"]])
    def test_parameter_whose_complement_rounds_to_one(self, argv, capsys):
        # 1 - 1e-17 rounds to 1: one stderr line that names the m given
        assert cli.main([*argv, "--m", "1e-17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: parameter m=1e-17: its complement 1 - m rounds to 1")

    def test_sample_potential_at_tiny_m(self, tmp_path):
        # the dn zero line of the (2,1) PT potential at m = 1e-9 is set, not
        # found by inverting sn, which fails its residual check there
        out = tmp_path / "v.csv"
        assert cli.main(["sample-potential", "--a", "2", "--b", "1", "--m", "1e-9", "--pt", "--n", "4",
                         "--out", str(out)]) == 0
        assert len(_read_csv(out)[1]["x"]) == 8

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out(self, where, tmp_path, capsys):
        # an --out that cannot be opened is a configuration error: one
        # stderr line and exit 2, not a traceback
        out = str(tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path)
        assert cli.main(["sample-potential", "--n", "4", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: cannot write --out {out}: ")

    def test_edges_takes_no_n(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["edges", "--n", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [["--tol", "1e-9"], ["--emin", "0"], ["--emax", "1"]])
    def test_sample_potential_takes_no_tol_or_range(self, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample-potential", *option])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["edges", "scan", "dispersion", "selfcheck"])
    def test_tol_must_be_positive_and_finite(self, command, tol, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(flq, "_propagate", no_integration)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--tol", tol])
        assert exc.value.code == 2


def test_runs_without_scipy():
    # the a=3 edges and the a=1 dispersion across its gap integrate and take
    # every inverse_sn leg, with scipy unimportable
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ptlame import cli\n"
        "sys.exit(cli.main(['edges', '--a', '3', '--pt', '--shift-zero'])"
        " or cli.main(['dispersion', '--a', '1', '--pt', '--shift-zero', '--emin', '-2', '--emax', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_start_up_imports_only_what_edges_runs():
    # the invariant registry serves selfcheck alone, the result records are
    # NamedTuples and orjson writes only the JSON format, so importing the CLI
    # loads none of the registry, dataclasses and orjson; selfcheck imports
    # the registry when it runs
    code = (
        "import sys\n"
        "from ptlame import cli\n"
        "loaded = [m for m in ('ptlame.invariants', 'dataclasses', 'orjson') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "sys.exit(cli.main(['selfcheck']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


class TestScan:
    def test_columns_and_reality(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(["scan", "--a", "1", "--pt", "--emin", "-2.2", "--emax", "0.2",
                       "--n", "60", "--out", str(out)])
        assert rc == 0
        _, cols = _read_csv(out)
        assert list(cols) == ["e", "re_delta", "im_delta"]
        assert max(abs(float(v)) for v in cols["im_delta"]) < 1e-7

    def test_paired_scan_gate(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(["scan", "--a", "1", "--pt", "--paired", "--emin", "-2.4",
                       "--emax", "0.3", "--n", "24", "--out", str(out)])
        assert rc == 0
        meta, cols = _read_csv(out)
        assert "verdict=PASS" in meta
        assert max(float(v) for v in cols["abs_diff"]) < 1e-6

    def test_paired_json_round_trip(self, tmp_path):
        # JSON writes every float's shortest round-trip digits, so the
        # columns parse back to the paired scans' arrays bit for bit
        out = tmp_path / "scan.json"
        rc = cli.main(["scan", "--a", "3", "--pt", "--paired", "--n", "500", "--format", "json", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count("\n") == 1
        doc = json.loads(text)
        meta, cols = doc["meta"], doc["columns"]
        scan, dual = flq.discriminant_scans([(build_spec(_edges_args("--a", "3", "--pt")), meta["emin"], meta["emax"]),
                                             (pot.Lame(3, 0.25), meta["emin"] + 12.0, meta["emax"] + 12.0)], 500)
        for name, ref in [("e", scan.energies), ("re_delta", scan.discriminants.real),
                          ("im_delta", scan.discriminants.imag), ("re_delta_dual", dual.discriminants.real),
                          ("im_delta_dual", dual.discriminants.imag),
                          ("abs_diff", np.abs(scan.discriminants - dual.discriminants))]:
            assert np.array_equal(np.array(cols[name], dtype=float), ref)
        assert meta["paired_max_abs_diff"] == float(np.max(cols["abs_diff"]))

    def test_paired_scan_is_one_batch(self, monkeypatch, tmp_path):
        # both sides' 65 Chebyshev points in one integration: the PT spec on
        # Re u = K and its modulus dual on the real axis share K(1 - m)
        calls = count_batches(monkeypatch)
        assert cli.main(["scan", "--a", "3", "--pt", "--paired", "--n", "500", "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [2 * flq._CHEB]

    @pytest.mark.parametrize("m, emax, passes_per_stage", [("0.75", "12.8", 1), ("0.3", "10.2", 2)])
    def test_paired_scan_shares_the_landen_pass(self, monkeypatch, tmp_path, m, emax, passes_per_stage):
        # PT Lame(3, m) on Re u = K and its dual Lame(3, 1 - m) on the real
        # axis both read the Landen pass at (1 - m, m) when 1 - fl(1 - m) ==
        # m, as at m = 0.75: one pass a stage serves both blocks.  At m = 0.3
        # the two keys differ by an ulp, so each block runs its own
        passes, nfev = [0], []
        schedule, solve = ell._landen_schedule, flq.solve_ivp

        class Counted(tuple):
            def __iter__(self):  # once per run of the backward recursion
                passes[0] += 1
                return super().__iter__()

        def counted_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(ell, "_landen_schedule", lambda m, mc: (schedule(m, mc)[0], Counted(schedule(m, mc)[1])))
        monkeypatch.setattr(flq, "solve_ivp", counted_solve)
        out = tmp_path / "s.json"
        argv = ["scan", "--a", "3", "--pt", "--paired", "--m", m, "--emin=-1", "--emax", emax, "--format", "json"]
        ell._landen_pass.cache_clear()
        try:
            assert cli.main(argv + ["--out", str(out)]) == 0
        finally:
            ell._landen_pass.cache_clear()
        meta = json.loads(out.read_text())["meta"]
        assert meta["verdict"] == "PASS" and meta["paired_max_abs_diff"] < 1e-9
        assert len(nfev) == 1 and passes[0] == passes_per_stage * nfev[0]

    def test_unresolved_paired_scan_integrates_each_grid_alone(self, monkeypatch, tmp_path):
        # on [-20, 3] neither side's series resolves (|Delta| reaches 1.8e6),
        # so each 300-energy grid follows in an integration of its own, and
        # each side's Delta is its own scan's, bit for bit
        calls = count_batches(monkeypatch)
        out = tmp_path / "s.json"
        argv = ["scan", "--a", "1", "--pt", "--paired", "--emin=-20", "--emax", "3", "--n", "300", "--format", "json"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert calls == [2 * flq._CHEB, 300, 300]
        cols = json.loads(out.read_text())["columns"]
        spec = build_spec(_edges_args("--a", "1", "--pt"))
        scan = flq.discriminant_scan(spec, -20.0, 3.0, 300)
        dual = flq.discriminant_scan(pot.Lame(1, 1.0 - spec.m), -18.0, 5.0, 300)
        assert np.array_equal(cols["re_delta"], scan.discriminants.real)
        assert np.array_equal(cols["re_delta_dual"], dual.discriminants.real)

    def test_short_paired_scan_is_one_batch(self, monkeypatch, tmp_path):
        # at most 65 energies a side, the grids take the points' place and
        # share one integration
        calls = count_batches(monkeypatch)
        assert cli.main(["scan", "--a", "3", "--pt", "--paired", "--n", "20", "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [40]

    def test_paired_sides_that_cannot_share_a_batch(self, monkeypatch, tmp_path):
        # at m = 3e-4 the dual's period, from the complement of fl(1 - m),
        # is the PT spec's only to 1e-14: each side is scanned alone, as
        # before the sides shared a batch
        calls = count_batches(monkeypatch)
        out = tmp_path / "scan.json"
        argv = ["scan", "--a", "1", "--pt", "--paired", "--m", "3e-4", "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        assert calls == [flq._CHEB, flq._CHEB]
        doc = json.loads(out.read_text())
        meta, cols = doc["meta"], doc["columns"]
        spec = build_spec(_edges_args("--a", "1", "--pt", "--m", "3e-4"))
        scan = flq.discriminant_scan(spec, meta["emin"], meta["emax"], 500)
        dual = flq.discriminant_scan(pot.Lame(1, 1.0 - 3e-4), meta["emin"] + 2.0, meta["emax"] + 2.0, 500)
        assert np.array_equal(cols["re_delta"], scan.discriminants.real)
        assert np.array_equal(cols["re_delta_dual"], dual.discriminants.real)

    def test_paired_requires_plain_pt(self, monkeypatch):
        # refused before the 500-energy scan integrates
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(flq, "_propagate", no_integration)
        assert cli.main(["scan", "--a", "1", "--paired"]) == 2

    def test_header_states_the_integrator_tolerances(self, tmp_path, monkeypatch):
        tols = _recorded_tols(monkeypatch)
        out = tmp_path / "scan.csv"
        assert cli.main(["scan", "--a", "1", "--pt", "--n", "12", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        assert tols and set(tols) == {(float(header["integrator_rtol"]), float(header["integrator_atol"]))}

    def test_header_states_the_default_energy_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert cli.main(["scan", "--a", "1", "--pt", "--n", "3", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        lo, hi = flq.default_energy_range(build_spec(_edges_args("--a", "1", "--pt")))
        assert (float(header["emin"]), float(header["emax"])) == (lo, hi)


class TestDispersion:
    def test_a1_analytic_agreement(self, tmp_path):
        out = tmp_path / "disp.csv"
        rc = cli.main(["dispersion", "--a", "1", "--pt", "--shift-zero",
                       "--emin", "0.0", "--emax", "2.0", "--n", "21", "--out", str(out)])
        assert rc == 0
        meta, cols = _read_csv(out)
        assert "analytic_available=True" in meta
        L = 2 * 1.685750354812596
        # first row is the ground edge: zone center
        assert abs(float(cols["k_numeric_re"][0])) * L < 1e-7
        diffs = [float(v) for v in cols["abs_diff"]]
        assert max(diffs) < 1e-6
        # rows inside the gap (0.75, 1) carry attenuation
        gap_rows = [i for i, e in enumerate(cols["e"]) if 0.78 < float(e) < 0.98]
        assert gap_rows and all(float(cols["k_numeric_im"][i]) > 1e-4 for i in gap_rows)

    @pytest.mark.parametrize("energies", [(), ("--emin", "-1", "--emax", "2")], ids=["default", "below-ground"])
    def test_small_m_ends_with_a_verdict(self, energies, tmp_path):
        # at m = 1e-9, w = sqrt(E/m) reaches 5.5e4, and alpha1 lies on the
        # imaginary axis, the right edge and the top edge of the rectangle:
        # the run ends with a verdict, 0 or 3 (the band (0, m) is 1e-9 wide,
        # so its E = 0 row is at float64's floor), not an InversionError
        out = tmp_path / "disp.csv"
        rc = cli.main(["dispersion", "--a", "1", "--pt", "--shift-zero", "--m", "1e-9", *energies, "--out", str(out)])
        assert rc in (0, 3)
        assert " analytic_available=True " in _read_csv(out)[0]

    @pytest.mark.parametrize("shift_zero", [False, True], ids=["raw", "shift-zero"])
    @pytest.mark.parametrize("ops", [("--pt", "--partner"), ("--partner", "--pt"), ("--pt", "--partner", "--partner")],
                             ids=lambda ops: "-".join(op.strip("-") for op in ops))
    def test_partners_share_the_analytic_k(self, ops, shift_zero, tmp_path):
        # SUSY intertwining keeps the Floquet multipliers, so every a=1 PT
        # construction is checked against the analytic k
        out = tmp_path / "disp.csv"
        argv = ["dispersion", "--a", "1", *ops, "--n", "7", "--out", str(out)]
        assert cli.main(argv + ["--shift-zero"] * shift_zero) == 0
        meta, cols = _read_csv(out)
        assert " analytic_available=True " in meta and meta.endswith(" verdict=PASS")
        assert max(float(v) for v in cols["abs_diff"]) < 1e-11

    def test_numeric_only_for_other_specs(self, tmp_path):
        out = tmp_path / "disp.csv"
        rc = cli.main(["dispersion", "--a", "2", "--pt", "--emin", "-5.5", "--emax", "-5.0",
                       "--n", "4", "--out", str(out)])
        assert rc == 0
        meta, cols = _read_csv(out)
        assert "analytic_available=False" in meta
        assert all(v == "" for v in cols["k_analytic_re"])

    def test_header_states_the_integrator_tolerances(self, tmp_path, monkeypatch):
        tols = _recorded_tols(monkeypatch)
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--a", "1", "--pt", "--shift-zero", "--n", "4", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        assert tols and set(tols) == {(float(header["integrator_rtol"]), float(header["integrator_atol"]))}

    def test_header_states_the_default_n(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--a", "1", "--pt", "--shift-zero", "--out", str(out)]) == 0
        meta, cols = _read_csv(out)
        header = _header(meta)
        assert header["n"] == "25" == str(len(cols["e"]))
        assert (float(header["emin"]), float(header["emax"])) == (0.0, 3.0)


class TestIntegrationLine:
    # (m, beta) whose line passes so close to a pole that integrating on it
    # drifts (det M) or misses a closed-form edge by 1e-6; on the line
    # farthest from the poles each passes
    @pytest.mark.parametrize("argv", [
        ["--a", "3", "--pt", "--m", "0.05", "--beta", "0.5"],
        ["--a", "2", "--b", "1", "--pt", "--m", "0.05", "--beta", "0.5"],
        ["--a", "3", "--pt", "--m", "0.75", "--beta", "0.05"],
        ["--a", "3", "--pt", "--partner", "--m", "0.75", "--beta", "0.05"],
        ["--a", "2", "--b", "1", "--pt", "--m", "0.75", "--beta", "0.05"],
        ["--a", "3", "--pt", "--m", "0.5", "--beta", "0.1"],
        # its ground state nearly vanishes on the user's line
        ["--a", "2", "--b", "1", "--m", "0.8299558300434793", "--beta", "0.6323595682218661", "--pt", "--partner"],
        # near m = 1: the a=3 top gap is 4.6e-5 wide, and its conditioning
        # sets the edge error there (8.6e-8)
        ["--a", "3", "--pt", "--m", "0.95", "--beta", "0.5"],
        ["--a", "3", "--pt", "--partner", "--m", "0.95", "--beta", "0.5"],
        ["--a", "2", "--b", "1", "--pt", "--m", "0.95", "--beta", "0.5"],
        ["--a", "2", "--b", "1", "--pt", "--partner", "--m", "0.95", "--beta", "0.5"],
    ], ids=["a3-m0.05", "a21-m0.05", "a3-beta0.05", "a3-partner-beta0.05", "a21-beta0.05", "a3-beta0.1",
            "a21-partner-near-ground-zero", "a3-m0.95", "a3-partner-m0.95", "a21-m0.95", "a21-partner-m0.95"])
    def test_edges_near_a_pole(self, argv, tmp_path):
        out = tmp_path / "edges.csv"
        assert cli.main(["edges", *argv, "--shift-zero", "--out", str(out)]) == 0
        meta, _ = _read_csv(out)
        assert "verdict=PASS" in meta

    def test_paired_scan_near_a_pole(self, tmp_path):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--a", "3", "--pt", "--paired", "--n", "500", "--m", "0.525048", "--beta", "0.065044"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        meta, _ = _read_csv(out)
        assert "verdict=PASS" in meta

    @pytest.mark.parametrize("command,argv", [
        ("edges", ["--a", "1"]),
        ("scan", ["--a", "1", "--emin", "-2.2", "--emax", "0.2", "--n", "12"]),
        ("dispersion", ["--a", "1", "--n", "3"]),
    ])
    def test_json_round_trip(self, command, argv, tmp_path):
        # beta stays the user's; integration_beta is the line integrated on,
        # null on the real axis
        out = tmp_path / "out.json"
        for ops, expected in (([], None), (["--pt"], flq.integration_beta(pot.PTTransform(pot.Lame(1, 0.75), 0.5)))):
            assert cli.main([command, *argv, *ops, "--format", "json", "--out", str(out)]) == 0
            meta = json.loads(out.read_text())["meta"]
            assert (meta["command"], meta["beta"], meta["integration_beta"]) == (command, 0.5, expected)
        assert expected is not None and expected != 0.5


CHEAP_ROWS = ("elliptic-identities", "sn-dn-imaginary-shift", "eigenfunction-residuals")


class TestSelfcheck:
    @pytest.fixture
    def cheap_registry(self, monkeypatch):
        rows = tuple(r for r in inv.REGISTRY if r.name in CHEAP_ROWS)
        monkeypatch.setattr(inv, "REGISTRY", rows)
        return rows

    def test_cheap_subset_passes(self, cheap_registry, tmp_path):
        out = tmp_path / "selfcheck.csv"
        assert cli.main(["selfcheck", "--out", str(out)]) == 0
        meta, cols = _read_csv(out)
        assert "verdict=PASS" in meta and "passed=3" in meta
        assert cols["name"] == list(CHEAP_ROWS)
        assert cols["verdict"] == ["PASS"] * 3

    def test_json_round_trip(self, cheap_registry, tmp_path):
        out = tmp_path / "selfcheck.json"
        assert cli.main(["selfcheck", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "selfcheck"
        assert not {"a", "b", "ops", "shift_zero", "emin", "emax", "n"} & set(doc["meta"])
        assert (doc["meta"]["integrator_rtol"], doc["meta"]["integrator_atol"]) == (flq.RTOL, flq.ATOL)
        assert (doc["meta"]["verdict"], doc["meta"]["passed"]) == ("PASS", 3)
        cols = doc["columns"]
        assert list(cols) == ["name", "seconds", "tol", "value", "verdict"]
        assert cols["name"] == list(CHEAP_ROWS)
        assert cols["tol"] == [r.tol for r in cheap_registry]
        assert all(v < t for v, t in zip(cols["value"], cols["tol"]))
        assert all(sec >= 0.0 for sec in cols["seconds"])

    def test_header_states_one_tolerance_pair(self, tmp_path, monkeypatch):
        # the edge rows and the dispersion row integrate at one RTOL/ATOL;
        # an (m, beta) no other test caches
        names = ("band-edge-tables", "dispersion-analytic-vs-numeric")
        monkeypatch.setattr(inv, "REGISTRY", tuple(r for r in inv.REGISTRY if r.name in names))
        tols = _recorded_tols(monkeypatch)
        out = tmp_path / "selfcheck.csv"
        assert cli.main(["selfcheck", "--m", "0.55", "--beta", "0.45", "--out", str(out)]) == 0
        header = _header(_read_csv(out)[0])
        stated = (float(header["integrator_rtol"]), float(header["integrator_atol"]))
        assert set(tols) == {stated} == {(flq.RTOL, flq.ATOL)}
        assert not [key for key in header if key.startswith("edge_integrator")]

    def test_spec_flags_are_usage_errors(self):
        # the registry builds its own specs, so a spec flag would be ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["selfcheck", "--a", "1"])
        assert exc.value.code == 2

    def test_corrupted_beta_fails_validation(self, capsys):
        assert cli.main(["selfcheck", "--beta", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_beta_on_dn_zero_line_is_config_error_before_any_check(self, capsys, monkeypatch):
        # beta = K(0.75): fine for the a=3 potential, rejected by the (2,1) one
        def no_run(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(inv, "run", no_run)
        assert cli.main(["selfcheck", "--beta", "2.1565156474996434"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dn zero line" in err


class TestVerdict:
    """`main` alone writes the verdict: a command that checks something ends
    its header with ``verdict=PASS`` or ``verdict=FAIL`` and exits 3 on FAIL;
    a command that checks nothing states none."""

    CHECKED = {
        "edges": ["edges", "--a", "1", "--pt", "--shift-zero"],
        "paired-scan": ["scan", "--a", "1", "--pt", "--paired", "--emin", "-2.4", "--emax", "0.3", "--n", "24"],
        "dispersion": ["dispersion", "--a", "1", "--pt", "--shift-zero", "--emin", "0", "--emax", "3"],
    }

    @staticmethod
    def _meta(argv, tmp_path):
        out = tmp_path / "out.csv"
        rc = cli.main([*argv, "--out", str(out)])
        return rc, _read_csv(out)[0]

    @pytest.mark.parametrize("command", [*CHECKED, "selfcheck"])
    def test_checked_header_ends_with_the_verdict(self, command, tmp_path, monkeypatch):
        monkeypatch.setattr(inv, "REGISTRY", tuple(r for r in inv.REGISTRY if r.name in CHEAP_ROWS))
        rc, meta = self._meta(self.CHECKED.get(command, ["selfcheck"]), tmp_path)
        assert rc == 0 and meta.endswith(" verdict=PASS") and meta.count("verdict=") == 1

    @pytest.mark.parametrize("command", [*CHECKED, "selfcheck"])
    def test_failed_check_ends_with_fail_and_exits_3(self, command, tmp_path, monkeypatch):
        # no comparison is within 1e-300, and a selfcheck row that reads 1
        # against 0.5 fails
        monkeypatch.setattr(inv, "REGISTRY", (inv.Invariant("always-fails", lambda m, beta: 1.0, 0.5),))
        argv = [*self.CHECKED[command], "--tol", "1e-300"] if command in self.CHECKED else ["selfcheck"]
        rc, meta = self._meta(argv, tmp_path)
        assert rc == 3 and meta.endswith(" verdict=FAIL") and meta.count("verdict=") == 1

    @pytest.mark.parametrize("argv", [
        ["sample-potential", "--n", "4"],
        ["scan", "--a", "1", "--pt", "--emin", "-2.2", "--emax", "0.2", "--n", "6"],
        ["dispersion", "--a", "2", "--pt", "--emin", "-5.5", "--emax", "-5.0", "--n", "4"],
    ], ids=["sample-potential", "unpaired-scan", "dispersion-without-closed-form"])
    def test_unchecked_commands_state_no_verdict(self, argv, tmp_path):
        rc, meta = self._meta(argv, tmp_path)
        assert rc == 0 and "verdict" not in meta
