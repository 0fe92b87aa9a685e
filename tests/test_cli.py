import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import kv

import prodfade
from prodfade import io as pio
from prodfade.cli import main
from prodfade.errors import IngestionError
from prodfade.fit import empirical_from_samples
from prodfade.mixture import ShadowedParams, cdf_single, pdf_single, sample_single
from prodfade.pdist import ProductModel
from prodfade.sysmodels import WpcConfig, wpc_sweep

KMS = {"mean_power": 1.5, "kappa": 2.0, "mu": 2, "m": 4}
PROD = {
    "link_a": {"kappa": 1.0, "mu": 1, "m": 2},
    "link_b": {"kappa": 3.0, "mu": 2, "m": 5, "mean_power": 2.0},
}
GG = {"m": 2, "m_hat": 3, "omega": 0.7, "omega_hat": 1.1}
MANIFEST_KEYS = {"command", "config", "seed", "version", "created_utc", "output"}


def dump(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, body


def test_parse_grid_forms():
    np.testing.assert_array_equal(pio.parse_grid("1:5:5"), [1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(
        pio.parse_grid("0.01:100:5:log"), np.geomspace(0.01, 100.0, 5), rtol=1e-15
    )
    assert pio.parse_grid("3:3:1").tolist() == [3.0]
    for bad in ("1:5", "a:5:3", "1:5:0", "1:5:4:cubic", "-1:5:3:log"):
        with pytest.raises(ValueError):
            pio.parse_grid(bad)


def test_format_float_roundtrips():
    for v in (1.0 / 3.0, 0.720268236366955, 1e300, 5e-324, -2.5):
        assert float(pio.format_float(v)) == v


@pytest.mark.parametrize("ncols", [1, 3])
def test_write_csv_bytes_match_format_float(tmp_path, ncols):
    values = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0])
    columns = [np.roll(values, j) for j in range(ncols)]
    header = ["c%d" % j for j in range(ncols)]
    pio.write_csv(tmp_path / "a.csv", header, columns)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(pio.format_float(c[i]) for c in columns) + "\n" for i in range(values.size))
    assert (tmp_path / "a.csv").read_bytes() == expected.encode()


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        pio.write_csv(tmp_path / "a.csv", ["a", "b"], [np.arange(3)])
    with pytest.raises(ValueError):
        pio.write_csv(tmp_path / "a.csv", ["a", "b"], [np.arange(3), np.arange(4)])


def write_text(path, text):
    path.write_text(text)
    return str(path)


def test_read_sample_csv_skips_blank_rows_and_unquotes(tmp_path):
    draws = [0.5, 2.0, 1.25, 2.0, 0.125]
    text = ('sample\n\n"0.5"\n   \n2.0,extra,fields\n , \n1.25\n"2.0",\n\t\n 0.125 \n\n')
    emp = pio.read_empirical_csv(write_text(tmp_path / "s.csv", text))
    ref = empirical_from_samples(np.array(draws))
    assert emp.sample_count == 5 and emp.mean == ref.mean
    np.testing.assert_array_equal(emp.x, ref.x)
    np.testing.assert_array_equal(emp.values, ref.values)


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
def test_read_curve_csv_skips_blank_rows_and_unquotes(tmp_path, kind):
    text = 'X,%s\n\n"0.5",0.25\n  ,  \n1.0,"0.75"\n' % kind.upper()
    emp = pio.read_empirical_csv(write_text(tmp_path / "c.csv", text))
    assert emp.kind == kind
    np.testing.assert_array_equal(emp.x, [0.5, 1.0])
    np.testing.assert_array_equal(emp.values, [0.25, 0.75])


@pytest.mark.parametrize("text,message", [
    ("sample\n1.0\n\n2.0\nabc\n3.0\n", "line 5: field 'sample' is not a number: 'abc'"),
    ("sample\n1.0\n,2.0\n", "line 3: field 'sample' is not a number: ''"),
    ("x,cdf\n0.5,0.25\n\n  \n1.0,0.5,9\n2.0,x\n", "line 5: expected 2 fields, got 3"),
    ("x,cdf\n0.5,0.25\n\n2.0,x\n", "line 4: field 'cdf' is not a number: 'x'"),
    ("x,pdf\n0.5,0.25\none,0.5\n", "line 3: field 'x' is not a number: 'one'"),
    ("", "empty file"),
    ("\n \n", "empty file"),
    ("sample\n\n", "no data rows"),
    ("x,cdf\n", "no data rows"),
    ("x,y\n", "no data rows"),
    ("x,y\n1,2\n", "unrecognized header 'x,y'"),
])
def test_read_empirical_csv_errors_name_the_line(tmp_path, text, message):
    with pytest.raises(IngestionError, match=message):
        pio.read_empirical_csv(write_text(tmp_path / "bad.csv", text))


def test_read_empirical_csv_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        pio.read_empirical_csv(str(tmp_path / "absent.csv"))


def test_eval_kms(tmp_path):
    out = tmp_path / "kms.csv"
    rc = main(["eval", "--dist", "kms", "--params", dump(tmp_path / "p.json", KMS),
               "--grid", "0.5:2:4", "--out", str(out)])
    assert rc == 0
    header, body = read_csv(out)
    assert header == ["x", "pdf", "cdf"]
    params = ShadowedParams(1.5, 2.0, 2, 4)
    np.testing.assert_allclose(body[:, 1], pdf_single(params, body[:, 0]), rtol=1e-15)
    np.testing.assert_allclose(body[:, 2], cdf_single(params, body[:, 0]), rtol=1e-15)
    manifest = json.loads((tmp_path / "kms.csv.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "eval"
    assert manifest["version"] == prodfade.__version__
    assert manifest["output"] == str(out)
    assert manifest["config"]["params"]["kappa"] == 2.0


def test_eval_gg_rayleigh_product_point(tmp_path):
    params = {"m": 1, "m_hat": 1, "omega": 1.0, "omega_hat": 1.0}
    out = tmp_path / "gg.csv"
    rc = main(["eval", "--dist", "gg", "--params", dump(tmp_path / "p.json", params),
               "--grid", "1:1:1", "--out", str(out)])
    assert rc == 0
    _, body = read_csv(out)
    np.testing.assert_allclose(body[0, 2], 1.0 - 2.0 * kv(1, 2.0), rtol=1e-12)
    gp = ProductModel(ShadowedParams.nakagami(1, 1.0), ShadowedParams.nakagami(1, 1.0))
    np.testing.assert_allclose(body[0, 1], gp.pdf(1.0), rtol=1e-15)


def test_gg_is_the_one_pair_product_model(tmp_path):
    params = dump(tmp_path / "p.json", GG)
    model = ProductModel(ShadowedParams.nakagami(2, 2 * 0.7),
                         ShadowedParams.nakagami(3, 3 * 1.1))
    assert model.pair_count == 1
    out = tmp_path / "gg.csv"
    assert main(["eval", "--dist", "gg", "--params", params,
                 "--grid", "0.01:20:40:log", "--out", str(out)]) == 0
    _, body = read_csv(out)
    np.testing.assert_array_equal(body[:, 1], model.pdf(body[:, 0]))
    np.testing.assert_array_equal(body[:, 2], model.cdf(body[:, 0]))
    assert main(["sample", "--dist", "gg", "--params", params,
                 "--n", "32", "--seed", "11", "--out", str(out)]) == 0
    _, body = read_csv(out)
    np.testing.assert_array_equal(body[:, 0], model.sample(np.random.default_rng(11), 32))


@pytest.mark.parametrize("field,value,code", [
    ("omega_hat", None, 3),     # missing
    ("m", 1.5, 2),
    ("omega", 0.0, 2),
    ("omega", [1.0], 3),
    ("m", 0, 2),
    ("m_hat", 2.5, 2),
    ("omega_hat", float("inf"), 2),
])
def test_gg_bad_params_exit_codes(tmp_path, capsys, field, value, code):
    bad = dict(GG)
    if value is None:
        del bad[field]
    else:
        bad[field] = value
    for command in (["eval", "--grid", "1:2:2"], ["sample", "--n", "4"]):
        assert main(command + ["--dist", "gg", "--params", dump(tmp_path / "p.json", bad),
                               "--out", str(tmp_path / "o.csv")]) == code
        # the message names the file's field, not the link parameter it feeds
        err = capsys.readouterr().err
        assert field + " must" in err or repr(field) in err


def test_eval_prod(tmp_path):
    out = tmp_path / "prod.csv"
    rc = main(["eval", "--dist", "prod", "--params", dump(tmp_path / "p.json", PROD),
               "--grid", "0.1:10:6:log", "--out", str(out)])
    assert rc == 0
    _, body = read_csv(out)
    model = ProductModel(ShadowedParams(1.0, 1.0, 1, 2), ShadowedParams(2.0, 3.0, 2, 5))
    np.testing.assert_allclose(body[:, 1], model.pdf(body[:, 0]), rtol=1e-15)
    np.testing.assert_allclose(body[:, 2], model.cdf(body[:, 0]), rtol=1e-15)
    manifest = json.loads((tmp_path / "prod.csv.manifest.json").read_text())
    assert manifest["config"]["params"]["link_b"]["mean_power"] == 2.0


def test_eval_error_exit_codes(tmp_path):
    kms = dump(tmp_path / "p.json", KMS)
    out = str(tmp_path / "o.csv")
    # nonpositive grid point and malformed grid are validation failures
    assert main(["eval", "--dist", "kms", "--params", kms,
                 "--grid", "0:1:2", "--out", out]) == 2
    assert main(["eval", "--dist", "kms", "--params", kms,
                 "--grid", "1:5", "--out", out]) == 2
    # unreadable / malformed / incomplete inputs are ingestion failures
    assert main(["eval", "--dist", "kms", "--params", str(tmp_path / "nope.json"),
                 "--grid", "1:2:2", "--out", out]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--dist", "kms", "--params", str(bad),
                 "--grid", "1:2:2", "--out", out]) == 3
    gg_missing = dump(tmp_path / "gg.json", {"m": 1, "m_hat": 1, "omega": 1.0})
    assert main(["eval", "--dist", "gg", "--params", gg_missing,
                 "--grid", "1:2:2", "--out", out]) == 3
    # parses fine but violates a domain constraint
    neg = dump(tmp_path / "neg.json", {"kappa": -1.0, "mu": 1, "m": 1})
    assert main(["eval", "--dist", "kms", "--params", neg,
                 "--grid", "1:2:2", "--out", out]) == 2


@pytest.mark.parametrize("dist,obj", [
    ("kms", dict(KMS, kappa=[1])),
    ("kms", dict(KMS, mean_power=None)),
    ("gg", dict(GG, omega={"a": 1})),
    ("prod", dict(PROD, link_b=dict(PROD["link_b"], mu="2"))),
])
def test_params_json_wrong_type_is_ingestion_error(tmp_path, dist, obj):
    with pytest.raises(IngestionError):
        pio.read_params_json(dump(tmp_path / "p.json", obj), dist)
    assert main(["eval", "--dist", dist, "--params", str(tmp_path / "p.json"),
                 "--grid", "1:2:2", "--out", str(tmp_path / "o.csv")]) == 3


def test_numerical_failure_exit_code(tmp_path):
    huge = {
        "link_a": {"kappa": 0.0, "mu": 1, "m": 1, "mean_power": 1e300},
        "link_b": {"kappa": 0.0, "mu": 1, "m": 1, "mean_power": 1e300},
    }
    rc = main(["eval", "--dist", "prod", "--params", dump(tmp_path / "p.json", huge),
               "--grid", "1:2:2", "--out", str(tmp_path / "o.csv")])
    assert rc == 4


def test_sample_reproducible_bytes(tmp_path):
    params = dump(tmp_path / "p.json", PROD)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, ("7", "7", "8")):
        rc = main(["sample", "--dist", "prod", "--params", params,
                   "--n", "400", "--seed", seed, "--out", str(path)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    # the data file is timestamp-free; only the manifests differ
    m0 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m1 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    m0.pop("created_utc"), m1.pop("created_utc")
    m0.pop("output"), m1.pop("output")
    assert m0 == m1
    assert m0["seed"] == 7


def test_sample_matches_library_draws(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sample", "--dist", "kms", "--params", dump(tmp_path / "p.json", KMS),
               "--n", "16", "--seed", "3", "--out", str(out)])
    assert rc == 0
    _, body = read_csv(out)
    expected = sample_single(ShadowedParams(1.5, 2.0, 2, 4),
                             np.random.default_rng(3), 16)
    np.testing.assert_array_equal(body[:, 0], expected)

    rc = main(["sample", "--dist", "prod", "--params", dump(tmp_path / "q.json", PROD),
               "--n", "16", "--seed", "5", "--out", str(out)])
    assert rc == 0
    _, body = read_csv(out)
    model = ProductModel(ShadowedParams(1.0, 1.0, 1, 2), ShadowedParams(2.0, 3.0, 2, 5))
    np.testing.assert_array_equal(
        body[:, 0], model.sample(np.random.default_rng(5), 16)
    )


def test_sample_count_validation(tmp_path):
    rc = main(["sample", "--dist", "kms", "--params", dump(tmp_path / "p.json", KMS),
               "--n", "0", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_match_kappa_stdout_and_json(tmp_path, capsys):
    assert main(["match-kappa", "--K", "10", "--mu", "1", "--m", "15"]) == 0
    assert capsys.readouterr().out.strip() == "14.948577431368578"
    out = tmp_path / "mk.json"
    assert main(["match-kappa", "--K", "10", "--mu", "1", "--m", "15",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["kappa"], 14.948577431368578, rtol=1e-12)
    assert payload["infinite_m"] is False
    assert (tmp_path / "mk.json.manifest.json").exists()
    # m <= mu has no finite root and is rejected up front
    assert main(["match-kappa", "--K", "10", "--mu", "2", "--m", "2"]) == 2
    assert main(["match-kappa", "--K", "10", "--mu", "1", "--m", "15",
                 "--infinite-m"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_fit_cdf_cli_roundtrip(tmp_path, capsys):
    gen = ProductModel(ShadowedParams(1.0, 2.0, 1, 3), ShadowedParams(1.0, 2.0, 1, 3))
    draws = gen.sample(np.random.default_rng(21), 3000)
    data = tmp_path / "samples.csv"
    pio.write_csv(data, ["sample"], [draws])
    out = tmp_path / "fit.json"
    rc = main(["fit-cdf", "--data", str(data), "--out", str(out),
               "--mu", "1", "--m", "1,3", "--tie-links", "--starts", "2",
               "--max-points", "60", "--min-cdf", "1e-3", "--seed", "9"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("ks_error = ")
    assert "link_a:" in printed and "link_b:" in printed
    payload = json.loads(out.read_text())
    assert payload["objective"] == "ks_error"
    assert payload["seed"] == 9
    assert payload["trace_length"] >= 4
    # the command line is a thin shell over the library search
    from prodfade.fit import SearchConfig, fit_cdf

    cfg = SearchConfig(max_m=30, mu_grid=(1,), kappa_range=(0.0, 50.0),
                       tie_links=True, n_starts=2, max_points=60,
                       tie_tol=1e-3, m_grid=(1, 3), min_cdf=1e-3)
    expected = fit_cdf(pio.read_empirical_csv(str(data)), cfg)
    np.testing.assert_allclose(
        payload["objective_value"], expected.objective_value, rtol=1e-12
    )
    pars = payload["parameters"]
    assert pars["link_a"]["mu"] == 1
    assert pars["link_a"]["m"] == expected.model.link_a.m
    np.testing.assert_allclose(pars["link_a"]["kappa"], expected.model.link_a.kappa,
                               rtol=1e-12)
    # tied search returns identical links
    assert pars["link_a"]["kappa"] == pars["link_b"]["kappa"]
    manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
    assert manifest["command"] == "fit-cdf"
    assert manifest["config"]["search"]["tie_links"] is True


def test_fit_cdf_all_candidates_fail_exit_code(tmp_path, monkeypatch, capsys):
    # Every candidate of every cell fails to evaluate: a numerical
    # failure with its exit code, not a crash inside the search.
    draws = np.random.default_rng(3).exponential(size=500)
    data = tmp_path / "samples.csv"
    pio.write_csv(data, ["sample"], [draws])
    monkeypatch.setattr("prodfade.pdist.weighted_cdf_sum",
                        lambda *args: np.full(np.shape(args[4]), np.nan))
    rc = main(["fit-cdf", "--data", str(data), "--out", str(tmp_path / "fit.json"),
               "--mu", "1", "--m", "1,2", "--tie-links", "--starts", "1"])
    assert rc == 4
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_fit_kind_mismatch_exit_codes(tmp_path):
    xs = np.linspace(0.1, 3.0, 20)
    pdf_file = tmp_path / "pdf.csv"
    pio.write_csv(pdf_file, ["x", "pdf"], [xs, np.exp(-xs)])
    assert main(["fit-cdf", "--data", str(pdf_file),
                 "--out", str(tmp_path / "o.json")]) == 2
    sample_file = tmp_path / "s.csv"
    pio.write_csv(sample_file, ["sample"], [xs])
    assert main(["fit-pdf", "--data", str(sample_file),
                 "--out", str(tmp_path / "o.json")]) == 2
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,foo\n1.0,2.0\n")
    assert main(["fit-cdf", "--data", str(bad_header),
                 "--out", str(tmp_path / "o.json")]) == 3
    ragged = tmp_path / "r.csv"
    ragged.write_text("x,cdf\n1.0\n")
    assert main(["fit-cdf", "--data", str(ragged),
                 "--out", str(tmp_path / "o.json")]) == 3


def test_fit_pdf_cli(tmp_path, capsys):
    from prodfade.pdist import EnvelopeModel

    gen = ProductModel(ShadowedParams(1.0, 1.5, 1, 2), ShadowedParams(1.0, 1.5, 1, 2))
    env = EnvelopeModel(gen, 1.2)
    r = np.linspace(0.05, 3.5, 80)
    data = tmp_path / "env.csv"
    pio.write_csv(data, ["x", "pdf"], [r, env.pdf(r)])
    out = tmp_path / "fit.json"
    rc = main(["fit-pdf", "--data", str(data), "--out", str(out),
               "--mu", "1", "--m", "2", "--tie-links", "--starts", "2"])
    assert rc == 0
    assert "envelope_scale=" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["objective"] == "mse_percent"
    assert payload["objective_value"] < 1e-4
    np.testing.assert_allclose(payload["parameters"]["envelope_scale"], 1.2, atol=1e-3)


def test_wpc_cli(tmp_path):
    cfg_obj = {"tx_power_over_noise": 1e5, "pb_antennas": 1, "rician_k": 0.0}
    out = tmp_path / "wpc.csv"
    rc = main(["wpc", "--config", dump(tmp_path / "c.json", cfg_obj),
               "--grid", "50:70:5", "--out", str(out)])
    assert rc == 0
    header, body = read_csv(out)
    assert header == ["p_over_n0_db", "outage", "throughput"]
    cfg = WpcConfig(1e5, 1, 0.0)
    _, outage, thr = wpc_sweep(cfg, np.linspace(50.0, 70.0, 5))
    np.testing.assert_allclose(body[:, 1], outage, rtol=1e-15)
    np.testing.assert_allclose(body[:, 2], thr, rtol=1e-15)

    rician = dict(cfg_obj, s_d_model={"kind": "rician", "k_factor": 5.0})
    assert main(["wpc", "--config", dump(tmp_path / "c2.json", rician),
                 "--grid", "60:70:3", "--out", str(out)]) == 0
    bad_kind = dict(cfg_obj, s_d_model={"kind": "weibull"})
    assert main(["wpc", "--config", dump(tmp_path / "c3.json", bad_kind),
                 "--grid", "60:70:3", "--out", str(out)]) == 3
    missing = {"pb_antennas": 1, "rician_k": 0.0}
    assert main(["wpc", "--config", dump(tmp_path / "c4.json", missing),
                 "--grid", "60:70:3", "--out", str(out)]) == 3
    bad_tau = dict(cfg_obj, harvest_fraction=1.5)
    assert main(["wpc", "--config", dump(tmp_path / "c5.json", bad_tau),
                 "--grid", "60:70:3", "--out", str(out)]) == 2


@pytest.mark.parametrize("field,value", [("pb_antennas", 2.5), ("m_proxy", 3.7)])
def test_wpc_cli_non_integer_count_is_validation_error(tmp_path, capsys, field, value):
    cfg = {"tx_power_over_noise": 1e5, "pb_antennas": 2, "rician_k": 0.0, field: value}
    assert main(["wpc", "--config", dump(tmp_path / "c.json", cfg),
                 "--grid", "60:70:3", "--out", str(tmp_path / "o.csv")]) == 2
    assert "%s must be an integer" % field in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    {"pb_antennas": [3]},
    {"rician_k": None},
    {"d1": {"m": 8.0}},
    {"s_d_model": {"kind": "rician", "k_factor": True}},
])
def test_wpc_json_wrong_type_is_ingestion_error(tmp_path, patch):
    cfg = dict({"tx_power_over_noise": 1e5, "pb_antennas": 1, "rician_k": 0.0}, **patch)
    with pytest.raises(IngestionError):
        pio.read_wpc_json(dump(tmp_path / "c.json", cfg))
    assert main(["wpc", "--config", str(tmp_path / "c.json"),
                 "--grid", "60:70:3", "--out", str(tmp_path / "o.csv")]) == 3


@pytest.mark.parametrize("patch", [
    {"mean_rx_power": [2.0]},
    {"forward": {"kappa": 0.0, "mu": 1, "m": None}},
])
def test_backscatter_json_wrong_type_is_ingestion_error(tmp_path, patch):
    cfg = dict({"mean_rx_power": 2.0,
                "forward": {"kappa": 0.0, "mu": 1, "m": 1},
                "reverse": {"kappa": 0.0, "mu": 1, "m": 1}}, **patch)
    with pytest.raises(IngestionError):
        pio.read_backscatter_json(dump(tmp_path / "c.json", cfg))
    assert main(["backscatter", "--config", str(tmp_path / "c.json"),
                 "--grid=-10:10:3", "--out", str(tmp_path / "o.csv")]) == 3


def test_backscatter_cli(tmp_path):
    cfg = {
        "mean_rx_power": 2.0,
        "forward": {"kappa": 0.0, "mu": 1, "m": 1},
        "reverse": {"kappa": 0.0, "mu": 1, "m": 1},
    }
    out = tmp_path / "bs.csv"
    rc = main(["backscatter", "--config", dump(tmp_path / "c.json", cfg),
               "--grid=-10:10:5", "--out", str(out)])
    assert rc == 0
    header, body = read_csv(out)
    assert header == ["power_db", "cdf"]
    z = 10.0 ** (body[:, 0] / 10.0) / 2.0
    np.testing.assert_allclose(
        body[:, 1], 1.0 - 2.0 * np.sqrt(z) * kv(1, 2.0 * np.sqrt(z)), rtol=1e-12
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == prodfade.__version__


def test_cli_import_leaves_scipy_stats_out():
    # In a fresh interpreter: this test process has scipy.stats loaded
    # already through other test modules.
    src = os.path.dirname(os.path.dirname(prodfade.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, prodfade.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _fresh_interpreter(code, cwd=None):
    """stdout of ``code`` run by a new interpreter that imports this prodfade."""
    src = os.path.dirname(os.path.dirname(prodfade.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=cwd,
                          capture_output=True, text=True).stdout


LAZY_SCIPY = ("scipy.optimize", "scipy.integrate")


@pytest.mark.parametrize("module", ["prodfade", "prodfade.cli"])
def test_import_leaves_lazy_scipy_out(module):
    code = "import sys, %s; print(sorted(m for m in %r if m in sys.modules))" % (
        module, LAZY_SCIPY + ("scipy.stats",))
    assert _fresh_interpreter(code).strip() == "[]"


def test_non_fit_commands_leave_lazy_scipy_out(tmp_path):
    # One interpreter runs the five commands in turn and reports, after
    # each, which of the lazily imported modules are loaded.
    dump(tmp_path / "p.json", PROD)
    dump(tmp_path / "w.json", {"tx_power_over_noise": 1e5, "pb_antennas": 2,
                               "rician_k": 5.0})
    dump(tmp_path / "b.json", {"mean_rx_power": 1e-3, "forward": PROD["link_a"],
                               "reverse": PROD["link_a"]})
    commands = [
        ["eval", "--dist", "prod", "--params", "p.json", "--grid", "0.01:2:5",
         "--out", "e.csv"],
        ["sample", "--dist", "prod", "--params", "p.json", "--n", "50", "--seed", "1",
         "--out", "s.csv"],
        ["wpc", "--config", "w.json", "--grid", "40:60:3", "--out", "w.csv"],
        ["backscatter", "--config", "b.json", "--grid=-60:-40:3", "--out", "b.csv"],
        ["match-kappa", "--K", "1e-6", "--mu", "1", "--m", "15"],
    ]
    code = ("import sys\nfrom prodfade.cli import main\n"
            "for args in %r:\n"
            "    assert main(args) == 0, args\n"
            "    print('after', args[0], sorted(m for m in %r if m in sys.modules))\n"
            % (commands, LAZY_SCIPY))
    report = [line for line in _fresh_interpreter(code, cwd=tmp_path).splitlines()
              if line.startswith("after ")]
    assert report == ["after %s []" % args[0] for args in commands]


def test_fit_cdf_loads_scipy_optimize(tmp_path):
    link = ShadowedParams(1.0, 1.0, 1, 2)
    draws = ProductModel(link, link).sample(np.random.default_rng(5), 300)
    pio.write_csv(tmp_path / "d.csv", ["sample"], [draws])
    code = ("import sys\nfrom prodfade.cli import main\n"
            "assert main(['fit-cdf', '--data', 'd.csv', '--out', 'f.json', '--mu', '1',"
            " '--m', '2', '--m-hat', '2', '--starts', '1', '--max-points', '40']) == 0\n"
            "print('scipy.optimize' in sys.modules)\n")
    assert _fresh_interpreter(code, cwd=tmp_path).splitlines()[-1] == "True"
