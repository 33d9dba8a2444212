import json
import random
from fractions import Fraction

import pytest

from slopekit.cli import main
from slopekit.exactval import LogRational
from slopekit.harness import (
    ExperimentConfig,
    bost_experiment,
    emit_records,
    emit_report,
    half_log_hermite,
    polygon_csv,
    polygon_svg,
    random_lattice,
    random_multifiltered,
    random_unimodular_lattice,
    read_flat_toml,
    repro,
)

F = Fraction


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(count=0)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"bogus": 1})
    p = tmp_path / "cfg.toml"
    p.write_text('seed = 11\ncount = 3\n# comment\nmax_rank = 2\n')
    cfg = ExperimentConfig.from_toml(str(p))
    assert cfg.seed == 11 and cfg.count == 3 and cfg.max_rank == 2


def test_flat_toml_rejects_sections(tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[section]\nseed = 1\n")
    with pytest.raises(ValueError):
        read_flat_toml(str(p))


def test_random_lattice_deterministic():
    a = random_lattice(random.Random(5), 3)
    b = random_lattice(random.Random(5), 3)
    assert a == b
    assert a.is_integral()
    c = random_unimodular_lattice(random.Random(5), 3)
    assert c.is_unimodular()


def test_random_lattice_entry_bound_one():
    lat = random_lattice(random.Random(1), 1, entry_bound=1)
    assert lat.gram[0][0] == 1


def test_bost_experiment_no_violations():
    cfg = ExperimentConfig(seed=2, count=8)
    records, summary = bost_experiment(cfg)
    assert summary["certified"] == 8
    assert summary["violations"] == []
    for r in records:
        assert r.gap >= LogRational(0)
        assert r.residual >= LogRational(0)
        assert r.mu_tensor <= r.bound_hermite
        assert r.ranks[0] * r.ranks[1] <= 6


def test_bost_unimodular_residuals_zero():
    cfg = ExperimentConfig(seed=4, count=6)
    records, summary = bost_experiment(cfg, unimodular=True)
    assert summary["all_residuals_zero"]
    for r in records:
        assert r.mu_tensor == LogRational(0)
        assert r.residual == LogRational(0)


def test_rank_one_factor_residual_zero():
    # invertible rank-one factor: tensoring shifts every slope by its degree
    cfg = ExperimentConfig(seed=6, count=12, max_rank=3)
    records, _ = bost_experiment(cfg)
    for r in records:
        if 1 in r.ranks:
            assert r.residual == LogRational(0)


def test_reports_deterministic():
    cfg = ExperimentConfig(seed=9, count=5)
    out1 = emit_records(*bost_experiment(cfg), fmt="json")
    out2 = emit_records(*bost_experiment(cfg), fmt="json")
    assert out1 == out2
    r1 = emit_report(repro("thm07", seed=3, count=3), "json")
    r2 = emit_report(repro("thm07", seed=3, count=3), "json")
    assert r1 == r2


def test_records_carry_exact_and_float():
    cfg = ExperimentConfig(seed=2, count=2)
    records, summary = bost_experiment(cfg)
    d = records[0].to_dict()
    for key in ("mu_tensor", "gap", "residual", "bound_sqrt_rank", "bound_hermite"):
        assert "exact" in d[key] and "float" in d[key]
    csv = emit_records(records, summary, fmt="csv")
    assert csv.splitlines()[0].startswith("index,")


def test_half_log_hermite_values():
    assert half_log_hermite(1) == LogRational(0)
    assert half_log_hermite(2) == _log(F(4, 3)) / 4
    assert half_log_hermite(8) == _log(2) / 2  # (1/16)*log(256)


def _log(q):
    from slopekit.exactval import log_of_rational

    return log_of_rational(q)


def test_repro_dispatch():
    assert repro("a2").passed
    assert repro("q7").passed
    assert repro("qp", p=13).passed
    assert repro("mf-lemma", seed=1, count=5).passed
    assert repro("thm07", seed=1, count=3).passed
    with pytest.raises(ValueError):
        repro("nope")


def test_repro_manifest_mentions_scope_note():
    rep = repro("qp", p=5)
    assert any("nef" in n for n in rep.notes)


def test_repro_a2_manifest_exact_value():
    rep = repro("a2")
    deg_checks = [c for c in rep.checks if c.name == "degree_formula"]
    assert deg_checks and "log(3)" in deg_checks[0].detail


def test_polygon_outputs():
    from slopekit.enumeration import slope_filtration
    from slopekit.lattice import unit_lattice

    lat = unit_lattice(1).scale(F(1, 4)).orthogonal_sum(unit_lattice(1).scale(4))
    poly = slope_filtration(lat)
    csv = polygon_csv(poly)
    assert csv.splitlines()[0] == "rank,max_degree_exact,max_degree_float"
    assert len(csv.splitlines()) == 3
    svg = polygon_svg(poly)
    assert svg.startswith("<svg") and "polyline" in svg


def test_multifiltered_generator_valid():
    rng = random.Random(31)
    for _ in range(10):
        m = random_multifiltered(rng, rng.randint(1, 5), rng.randint(1, 3))
        assert m.dim >= 1
        assert all(f.steps[0][0] <= f.steps[-1][0] for f in m.filtrations)


# ---------------------------------------------------------------------------
# CLI


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_lattice_roundtrip(tmp_path, capsys):
    f = _write(tmp_path, "a2.json", {"rank": 2, "gram": [["2", "1"], ["1", "2"]], "scale": "2/3"})
    assert main(["lattice", "info", f]) == 0
    out = capsys.readouterr().out
    assert "slope" in out and "log(3)" in out
    assert main(["lattice", "mu-max", f]) == 0
    out = capsys.readouterr().out
    assert "certified: True" in out and "semistable: True" in out


def test_cli_filtration_files(tmp_path, capsys):
    f = _write(
        tmp_path,
        "split.json",
        {"rank": 2, "gram": [["1/4", "0"], ["0", "4"]]},
    )
    svg = tmp_path / "out.svg"
    csv = tmp_path / "out.csv"
    assert main(["lattice", "filtration", f, "--svg", str(svg), "--csv", str(csv)]) == 0
    assert svg.read_text().startswith("<svg")
    assert "max_degree_exact" in csv.read_text()


def test_cli_tensor_check(tmp_path, capsys):
    f = _write(tmp_path, "a2.json", {"rank": 2, "gram": [["2", "1"], ["1", "2"]]})
    assert main(["lattice", "tensor-check", f, f]) == 0
    out = capsys.readouterr().out
    assert "tensor_mu_max_upper" in out


def test_cli_mf(tmp_path, capsys):
    full = [["1", "0"], ["0", "1"]]
    data = {
        "dim": 2,
        "filtrations": [
            {"steps": [{"lambda": "0", "basis": full}, {"lambda": "1", "basis": [["1", "0"]]}]},
            {"steps": [{"lambda": "0", "basis": full}, {"lambda": "1", "basis": [["0", "1"]]}]},
        ],
    }
    f = _write(tmp_path, "mf.json", data)
    assert main(["mf", "slope", f]) == 0
    assert "slope: 1" in capsys.readouterr().out
    assert main(["mf", "mu-max", f]) == 0
    assert "certified: True" in capsys.readouterr().out
    assert main(["mf", "tensor-check", f, f]) == 0


def test_cli_repro_and_exit_codes(tmp_path, capsys):
    assert main(["repro", "qp", "--p", "37"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert main(["repro", "a2", "--twist", "1/2"]) == 1  # inadmissible twist
    capsys.readouterr()


def test_cli_bost(capsys):
    assert main(["bost-experiment", "--seed", "3", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "summary" in out


def test_cli_bost_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("seed = 5\ncount = 2\n")
    assert main(["bost-experiment", "--config", str(cfg), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["count"] == 2


def test_cli_bad_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["lattice", "info", missing]) == 2


BAD_LATTICE_JSON = {
    "invalid-json": '{"gram": [[1',
    "no-gram": '{"rank": 2}',
    "top-level-list": "[[1, 0], [0, 1]]",
    "top-level-number": "3",
    "gram-not-list": '{"gram": 5}',
    "rows-not-lists": '{"gram": [1, 2]}',
    "entry-not-rational": '{"gram": [["x"]]}',
    "not-square": '{"gram": [[1, 0]]}',
    "not-symmetric": '{"gram": [[1, 2], [3, 4]]}',
    "not-definite": '{"gram": [[1, 2], [2, 1]]}',
    "rank-not-number": '{"gram": [[1]], "rank": [1]}',
    "rank-infinite": '{"gram": [[1]], "rank": Infinity}',
    "scale-zero": '{"gram": [[1]], "scale": 0}',
    "rank-mismatch": '{"gram": [[1]], "rank": 2}',
}


@pytest.mark.parametrize("action", ["info", "mu-max", "filtration"])
@pytest.mark.parametrize("case", sorted(BAD_LATTICE_JSON))
def test_cli_bad_lattice_json_exits_2(tmp_path, capsys, case, action):
    p = tmp_path / "bad.json"
    p.write_text(BAD_LATTICE_JSON[case])
    assert main(["lattice", action, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_tensor_check_requires_two_files(tmp_path, capsys):
    f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    assert main(["lattice", "tensor-check", f]) == 2
    assert "two lattice files" in capsys.readouterr().err
