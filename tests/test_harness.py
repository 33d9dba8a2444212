import json
import random
import time
from fractions import Fraction

import pytest

from slopekit.cli import main
from slopekit.exactval import LogRational, _is_prime
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
    for removed in ("max_dim", "n_filtrations", "rand_subspaces"):
        p.write_text(f"seed = 11\n{removed} = 3\n")
        with pytest.raises(ValueError, match=removed):
            ExperimentConfig.from_toml(str(p))
    # max_tensor_rank = 0 made the rank redraw loop spin forever
    for bad, match in (
        ("max_tensor_rank = 0", "max_tensor_rank"),
        ('count = "abc"', "unsupported value"),
        ("count = true", "unsupported value"),
        ("seed = 1.5", "unsupported value"),
    ):
        p.write_text(f"seed = 11\n{bad}\n")
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_toml(str(p))
    for field, value in (("count", True), ("count", "abc"), ("seed", 1.0), ("max_tensor_rank", 0)):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})
    # rank 9 is past the Hermite table; such a run used to fail only at its first 3x3 draw
    p.write_text("max_rank = 3\nmax_tensor_rank = 9\nseed = 1\ncount = 30\n")
    with pytest.raises(ValueError, match="max_tensor_rank.*Hermite"):
        ExperimentConfig.from_toml(str(p))
    assert ExperimentConfig(max_tensor_rank=8).max_tensor_rank == 8


def test_flat_toml_rejects_sections(tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[section]\nseed = 1\n")
    with pytest.raises(ValueError):
        read_flat_toml(str(p))


def test_flat_toml_rejects_a_line_without_equals(tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("seed = 1\ncount\n")
    with pytest.raises(ValueError, match=r"bad\.toml:2: expected key = value"):
        read_flat_toml(str(p))


def test_emitters_reject_unknown_formats():
    rep = repro("a2")
    with pytest.raises(ValueError, match="unsupported report format 'csv'"):
        emit_report(rep, "csv")
    with pytest.raises(ValueError, match="unsupported records format 'xml'"):
        emit_records(*bost_experiment(ExperimentConfig(count=1)), "xml")


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


@pytest.mark.parametrize("target", ["mf-lemma", "thm07"])
@pytest.mark.parametrize("count", [0, -5])
def test_repro_rejects_nonpositive_count(target, count):
    with pytest.raises(ValueError, match="count must be positive"):
        repro(target, seed=1, count=count)


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
    flat = slope_filtration(unit_lattice(3))  # all degrees 0: a flat plot
    assert [(k, d) for k, d in flat.hull] == [(0, 0), (3, 0)]
    assert polygon_svg(flat).count("<circle") == 2


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


def test_cli_tensor_check_passes_cap(tmp_path, capsys):
    f = _write(tmp_path, "g3.json", {"gram": [[5, 2, 1], [2, 6, 2], [1, 2, 7]]})
    assert main(["lattice", "tensor-check", f, f]) == 0
    capsys.readouterr()
    assert main(["lattice", "tensor-check", f, f, "--cap", "3"]) == 1
    err = capsys.readouterr().err
    assert "inputs_certified" in err and "FAIL" in err


def test_cli_mu_max_uncertified_verdict(tmp_path, capsys):
    f = _write(tmp_path, "g3.json", {"gram": [[5, 2, 1], [2, 6, 2], [1, 2, 7]]})
    assert main(["lattice", "mu-max", f, "--cap", "3"]) == 1
    out = capsys.readouterr().out
    assert "certified: False" in out
    assert "semistable: unknown (uncertified)" in out
    assert "semistable: True" not in out and "semistable: False" not in out
    assert main(["lattice", "mu-max", f]) == 0
    assert "certified: True\nsemistable: False\n" in capsys.readouterr().out


def test_cli_filtration_uncertified_says_so(tmp_path, capsys):
    f = _write(tmp_path, "g3.json", {"gram": [[5, 2, 1], [2, 6, 2], [1, 2, 7]]})
    assert main(["lattice", "filtration", f]) == 0
    certified = capsys.readouterr()
    assert certified.err == ""
    assert certified.out.splitlines()[-2:] == [
        "hull: [(0, '0'), (1, '-1/2*log(5)'), (2, '-1/2*log(2) - 1/2*log(13)'), "
        "(3, '-1*log(2) - 1/2*log(41)')]",
        "quotient slopes: ['-1/2*log(5)', '-1/2*log(2) + 1/2*log(5) - 1/2*log(13)', "
        "'-1/2*log(2) + 1/2*log(13) - 1/2*log(41)']",
    ]
    # the cap stops the rank-1 search; the known rank-3 point stays
    assert main(["lattice", "filtration", f, "--cap", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "rank 3: max degree -1*log(2) - 1/2*log(41) (~-2.549933214)",
        "hull: [(0, '0'), (3, '-1*log(2) - 1/2*log(41)')]",
        "quotient slopes: ['-1/3*log(2) - 1/6*log(41)']",
    ]
    assert err == "uncertified: enumeration node cap 2 exceeded\n"


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


def test_cli_mf_tensor_check_three_lines(tmp_path, capsys):
    """Three weight-1 lines in Q^2 (slope 3/2, best line value 1, mu_max 3/2)
    tensored with a line of three zero filtrations: every check is a
    theorem, and none asks nu + rho to bound mu_max."""
    full = [["1", "0"], ["0", "1"]]
    lines = {
        "dim": 2,
        "filtrations": [
            {"steps": [{"lambda": "0", "basis": full}, {"lambda": "1", "basis": [row]}]}
            for row in (["1", "0"], ["0", "1"], ["1", "1"])
        ],
    }
    unit = {"dim": 1, "filtrations": [{"steps": [{"lambda": "0", "basis": [["1"]]}]}] * 3}
    f, g = _write(tmp_path, "lines.json", lines), _write(tmp_path, "unit.json", unit)
    assert main(["mf", "tensor-check", f, g]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "line_plus_correction_bound" not in out
    assert "tensor_line_bound: nu(tensor) = 1 <= 3/2" in out
    assert "tensor_mu_max_lower: mu_max(tensor) = 3/2 >= 3/2" in out


def test_repro_thm07_seed_6():
    """At seed 6, instance 30 has slope 4/3 above its line value 1, below
    mu_max = 3/2: both bounds by mu_max hold on every instance."""
    rep = repro("thm07", seed=6, count=50)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert "50/50" in by_name["tensor_mu_max_additive"].detail
    assert by_name["line_value_at_most_mu_max"].detail == "50/50: line value <= mu_max on the tensor"
    assert by_name["slope_at_most_mu_max"].detail == "50/50: slope <= mu_max on the tensor"


def test_cli_mf_without_filtrations(tmp_path, capsys):
    # every line has value 0, the slope; the loader accepts the space
    f = _write(tmp_path, "mf.json", {"dim": 2, "filtrations": []})
    assert main(["mf", "slope", f]) == 0
    assert "best line value: 0" in capsys.readouterr().out
    assert main(["mf", "tensor-check", f, f]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_mf_best_line_below_slope(tmp_path, capsys):
    # three weight-1 lines in Q^2: slope 3/2, every line has value 1
    steps = [
        {"steps": [{"lambda": "0", "basis": [["1", "0"], ["0", "1"]]}, {"lambda": "1", "basis": [line]}]}
        for line in (["1", "0"], ["0", "1"], ["1", "1"])
    ]
    f = _write(tmp_path, "mf.json", {"dim": 2, "filtrations": steps})
    assert main(["mf", "slope", f]) == 0
    out = capsys.readouterr().out
    assert "slope: 3/2" in out and "best line value: 1 " in out


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


@pytest.mark.parametrize("opt", ["--seed", "--count"])
def test_cli_bost_config_refuses_seed_and_count(tmp_path, capsys, opt):
    """The config file sets seed and count: either option with --config is
    an error, not silently ignored."""
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("seed = 5\ncount = 2\n")
    assert main(["bost-experiment", "--config", str(cfg), opt, "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {opt} does not apply with --config\n"


def test_cli_bost_omitted_options_keep_defaults(capsys):
    assert main(["bost-experiment", "--format", "json"]) == 0
    expect = emit_records(*bost_experiment(ExperimentConfig(seed=0, count=50)), "json")
    assert capsys.readouterr().out == expect + "\n"


def test_cli_mf_lemma_failure_is_a_fail_line(monkeypatch, capsys):
    """A multigraded aggregate that disagrees with the slope ends
    `repro mf-lemma` with a FAIL line and exit 1, not a traceback."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_multigraded", lambda m: {(F(99),) * m.n_filtrations: m.dim})
    assert main(["repro", "mf-lemma", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("FAIL: check failed: multigraded_aggregate (")


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
    "entry-zero-denominator": '{"gram": [["1/0"]]}',
    "rank-zero-denominator": '{"gram": [[1]], "rank": "1/0"}',
    "scale-zero-denominator": '{"gram": [[1]], "scale": "1/0"}',
    "needs-row-swap": '{"gram": [[0, 1], [1, 0]]}',
    "singular-psd": '{"gram": [[1, 1], [1, 1]]}',
}


BAD_REPRO_ARGS = {
    "twist-zero-denominator": ["a2", "--twist", "1/0"],
    "twist-not-rational": ["a2", "--twist", "x"],
    "thm07-negative-count": ["thm07", "--count", "-5"],
    "thm07-zero-count": ["thm07", "--count", "0"],
    "mf-lemma-zero-count": ["mf-lemma", "--count", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_REPRO_ARGS))
def test_cli_bad_repro_args_exit_2(capsys, case):
    assert main(["repro", *BAD_REPRO_ARGS[case]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


STRAY_REPRO_ARGS = {
    "q7-twist": ["q7", "--twist", "2"],
    "thm07-twist": ["thm07", "--twist", "2/3"],
    "a2-p": ["a2", "--p", "13"],
    "q7-p": ["q7", "--p", "5"],
    "mf-lemma-p": ["mf-lemma", "--p", "37"],
    "thm07-p": ["thm07", "--p", "5"],
    "a2-seed": ["a2", "--seed", "1"],
    "q7-count": ["q7", "--count", "3"],
    "qp-seed": ["qp", "--seed", "0"],
    "qp-count": ["qp", "--p", "13", "--count", "50"],
}


@pytest.mark.parametrize("case", sorted(STRAY_REPRO_ARGS))
def test_cli_repro_option_for_another_target_exits_2(capsys, case):
    """An option the target does not take is refused, even at its default
    value, with one error line naming it."""
    args = STRAY_REPRO_ARGS[case]
    assert main(["repro", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {args[-2]} does not apply to repro {args[0]}\n"


def test_cli_repro_omitted_options_keep_defaults(capsys):
    for args, rep in (
        (["a2"], repro("a2")),
        (["qp"], repro("qp", p=5)),
        (["mf-lemma", "--count", "3"], repro("mf-lemma", seed=0, count=3)),
        (["thm07", "--seed", "2", "--count", "2"], repro("thm07", seed=2, count=2)),
    ):
        assert main(["repro", *args, "--format", "json"]) == 0
        assert capsys.readouterr().out == emit_report(rep, "json") + "\n"


@pytest.mark.parametrize("action", ["info", "mu-max", "filtration"])
@pytest.mark.parametrize("case", sorted(BAD_LATTICE_JSON))
def test_cli_bad_lattice_json_exits_2(tmp_path, capsys, case, action):
    p = tmp_path / "bad.json"
    p.write_text(BAD_LATTICE_JSON[case])
    assert main(["lattice", action, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("action,cap", [("mu-max", "0"), ("mu-max", "-1"), ("filtration", "-3"), ("info", "0")])
def test_cli_nonpositive_cap_exits_2(tmp_path, capsys, action, cap):
    f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    assert main(["lattice", action, f, "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cap") and captured.err.count("\n") == 1


_FULL_STEP = '{"lambda": 0, "basis": [[1, 0], [0, 1]]}'
BAD_MF_JSON = {
    "invalid-json": '{"dim": 2, "filtrations": [',
    "top-level-list": "[1]",
    "top-level-number": "3",
    "no-dim": '{"filtrations": []}',
    "dim-only": '{"dim": 2}',
    "dim-string": '{"dim": "2", "filtrations": []}',
    "dim-float": '{"dim": 2.5, "filtrations": []}',
    "dim-bool": '{"dim": true, "filtrations": []}',
    "dim-zero": '{"dim": 0, "filtrations": []}',
    "filtrations-number": '{"dim": 2, "filtrations": 5}',
    "filtration-not-object": '{"dim": 2, "filtrations": [[1]]}',
    "no-steps": '{"dim": 2, "filtrations": [{}]}',
    "steps-not-list": '{"dim": 2, "filtrations": [{"steps": 1}]}',
    "step-not-object": '{"dim": 2, "filtrations": [{"steps": [1]}]}',
    "no-lambda": '{"dim": 2, "filtrations": [{"steps": [{"basis": [[1, 0], [0, 1]]}]}]}',
    "lambda-not-rational": '{"dim": 2, "filtrations": [{"steps": [{"lambda": [0], "basis": [[1, 0], [0, 1]]}]}]}',
    "no-basis": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0}]}]}',
    "basis-not-list": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": 1}]}]}',
    "row-not-list": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": [1, 0]}]}]}',
    "row-wrong-width": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": [[1, 0, 0], [0, 1, 0]]}]}]}',
    "entry-not-rational": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": [["x", 0], [0, 1]]}]}]}',
    "lambda-zero-denominator": '{"dim": 2, "filtrations": [{"steps": [{"lambda": "1/0", "basis": [[1, 0], [0, 1]]}]}]}',
    "entry-zero-denominator": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": [["1/0", 0], [0, 1]]}]}]}',
    "no-steps-listed": '{"dim": 2, "filtrations": [{"steps": []}]}',
    "lowest-not-full": '{"dim": 2, "filtrations": [{"steps": [{"lambda": 0, "basis": [[1, 0]]}]}]}',
    "duplicate-break": '{"dim": 2, "filtrations": [{"steps": [%s, %s]}]}' % (_FULL_STEP, _FULL_STEP),
    "not-decreasing": '{"dim": 2, "filtrations": [{"steps": [%s, '
    '{"lambda": 1, "basis": [[1, 0]]}, {"lambda": 2, "basis": [[0, 1]]}]}]}' % _FULL_STEP,
}


@pytest.mark.parametrize("action", ["slope", "mu-max"])
@pytest.mark.parametrize("case", sorted(BAD_MF_JSON))
def test_cli_bad_mf_json_exits_2(tmp_path, capsys, case, action):
    p = tmp_path / "bad.json"
    p.write_text(BAD_MF_JSON[case])
    assert main(["mf", action, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


TEXT_ONLY_ACTIONS = [
    ("lattice", "info"),
    ("lattice", "mu-max"),
    ("lattice", "filtration"),
    ("mf", "slope"),
    ("mf", "mu-max"),
]


@pytest.mark.parametrize("command,action", TEXT_ONLY_ACTIONS)
def test_cli_json_format_only_for_reports(tmp_path, capsys, command, action):
    if command == "lattice":
        f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    else:
        f = _write(tmp_path, "mf.json", {"dim": 1, "filtrations": []})
    assert main([command, action, f, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main([command, "tensor-check", f, f, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_cli_tensor_check_requires_two_files(tmp_path, capsys):
    f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    assert main(["lattice", "tensor-check", f]) == 2
    assert "two lattice files" in capsys.readouterr().err


def test_cli_mf_tensor_check_requires_two_files(tmp_path, capsys):
    f = _write(tmp_path, "mf.json", {"dim": 1, "filtrations": []})
    assert main(["mf", "tensor-check", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: tensor-check needs two input files\n"


@pytest.mark.parametrize("command,action", TEXT_ONLY_ACTIONS)
def test_cli_second_file_only_for_tensor_check(tmp_path, capsys, command, action):
    """An action that reads one file refuses a second rather than ignore it."""
    if command == "lattice":
        f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    else:
        f = _write(tmp_path, "mf.json", {"dim": 1, "filtrations": []})
    assert main([command, action, f, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a second file is supported only by {command} tensor-check\n"


@pytest.mark.parametrize("action", ["info", "mu-max", "tensor-check"])
@pytest.mark.parametrize("opt", ["--csv", "--svg"])
def test_cli_plot_files_only_for_filtration(tmp_path, capsys, action, opt):
    """Only lattice filtration writes --csv and --svg; the other actions
    refuse them and write nothing."""
    f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    out = tmp_path / "out"
    files = [f, f] if action == "tensor-check" else [f]
    assert main(["lattice", action, *files, opt, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {opt} is supported only by lattice filtration\n"


@pytest.mark.parametrize("cap", ["5", "2000000", "0"])
def test_cli_info_refuses_cap(tmp_path, capsys, cap):
    """lattice info searches nothing, so a --cap given to it is refused, even
    at the default value; without one it prints as before."""
    f = _write(tmp_path, "z.json", {"rank": 1, "gram": [["1"]]})
    assert main(["lattice", "info", f, "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap is supported only by lattice mu-max, filtration and tensor-check\n"
    assert main(["lattice", "info", f]) == 0
    assert capsys.readouterr().out.startswith("rank: 1\ndet: 1\n")


def test_cli_factoring_cap_exits_2(tmp_path, capsys):
    """A det that is a product of two 56-bit primes is beyond Pollard-Brent
    rho's step cap: one error line and exit 2, not minutes of work."""

    def next_prime(n):
        while not _is_prime(n):
            n += 1
        return n

    p = next_prime(2**55)
    q = next_prime(p + 2**20)
    f = _write(tmp_path, "pq.json", {"rank": 1, "gram": [[str(p * q)]]})
    start = time.perf_counter()
    assert main(["lattice", "info", f]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(p * q) in err


def test_golden_outputs_are_kept():
    """Every entry of tests/data/golden.json, written by tests/make_golden.py
    from public functions, is what the library gives now: the tensor step of
    both categories on 100 seeded pairs each, the inequality suite on 40,
    thm07 and mf-lemma, the tensor-bound experiment, lattice `mu_max` and
    `slope_filtration` at node caps and `minimum_sq` with a shortest vector
    on 120 seeded lattices, `mu_max` at node caps on 30 seeded tensors of
    rank 9-12, `lll_reduce` on the criterion-4 corpus and its duals, and
    stdout, stderr and exit code of the `lattice` and `mf` commands on
    seeded files. The corpus holds an uncertified 9-dimensional tensor
    (draw 72), 163 uncertified lattice `mu_max` results at caps 2, 20 and
    200 and 75 on the tensors, so the flag and the upper bound of a failed
    certificate are kept too; and a command that exits 1 with stdout empty
    and two that exit 2."""
    from make_golden import GOLDEN, golden

    want = json.loads(GOLDEN.read_text())
    mf_72 = want["tensor_step"]["multifilt"][72][2]
    assert not mf_72["certified"] and len(mf_72["witness"][0]) == 9
    caps = want["lattice_caps"]
    assert [sum(not e["certified"] for e in caps[f"mu_max-{cap}"]) for cap in ("2", "20", "200", "default")] == [113, 34, 16, 0]
    tensor_caps = want["tensor_caps"]
    assert [sum(e["certified"] for e in tensor_caps[f"mu_max-{cap}"]) for cap in (20, 200, 2000)] == [2, 4, 9]
    cli = want["cli"]
    assert cli["lattice tensor-check e8.json z1.json --cap 1"] == {
        "exit": 1, "stdout": "", "stderr": "uncertified: enumeration node cap 1 exceeded\n"
    }
    assert [run["exit"] for run in cli.values()].count(2) == 2
    got = golden()
    assert got.keys() == want.keys()
    for section, entries in want.items():
        for key, value in entries.items():
            assert got[section][key] == value, f"{section}/{key}"
