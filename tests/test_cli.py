import json

import pytest

import seritree.growth
import seritree.limits
from seritree.cli import main


def run_cli(args):
    return main(args)


def test_grow_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["grow", "--delta", "0", "--n", "2000", "--seed", "7", "--checkpoints", "100,2000"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "tree.csv").read_bytes() == (out2 / "tree.csv").read_bytes()
    assert (out1 / "checkpoints.csv").read_bytes() == (out2 / "checkpoints.csv").read_bytes()
    assert (out1 / "manifest.json").exists()
    # checkpoint csv holds both requested times
    rows = (out1 / "checkpoints.csv").read_text().splitlines()
    assert rows[0] == "n,degree,count"
    ns = {line.split(",")[0] for line in rows[1:]}
    assert ns == {"100", "2000"}


def test_grow_binary_format(tmp_path):
    out = tmp_path / "bin"
    assert run_cli(["grow", "--delta", "1", "--n", "50", "--seed", "1",
                    "--format", "bin", "--out", str(out)]) == 0
    assert (out / "tree.bin").exists()


def test_grow_rejects_bad_delta(tmp_path):
    code = run_cli(["grow", "--delta", "-1.5", "--n", "10", "--seed", "1",
                    "--out", str(tmp_path)])
    assert code == 2


def test_grow_rejects_bad_checkpoints(tmp_path):
    code = run_cli(["grow", "--delta", "0", "--n", "10", "--seed", "1",
                    "--checkpoints", "99", "--out", str(tmp_path)])
    assert code == 2


def test_limit_pmf_report(tmp_path):
    out = tmp_path / "pmf"
    code = run_cli(["limit-pmf", "--delta", "0", "--reps", "30000", "--seed", "1",
                    "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == 0
    assert report["pass"] is True
    assert abs(report["target"] - 0.7182818284590451) < 1e-9
    assert abs(report["p1_estimate"] - report["target"]) <= report["tolerance"]
    assert (out / "pmf.csv").exists()
    assert (out / "manifest.json").exists()


def test_spectrum_report(tmp_path):
    out = tmp_path / "spec"
    code = run_cli(["spectrum", "--n", "512", "--delta", "0", "--seed", "1",
                    "--out", str(out)])
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 1 + 513
    total = sum(float(x) for x in lines[1:])
    assert abs(total) <= 1e-6
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True


def test_spectrum_size_cap(tmp_path):
    code = run_cli(["spectrum", "--n", "4096", "--delta", "0", "--seed", "1",
                    "--out", str(tmp_path / "x")])
    assert code == 3


def test_localcheck(tmp_path):
    out = tmp_path / "local"
    code = run_cli(["localcheck", "--delta", "0", "--seed", "2", "--reps", "200",
                    "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["max_form_gap"] <= 1e-10
    assert report["discrete_limit_rel_gap"] <= 0.05


def test_tail_small_run(tmp_path):
    out = tmp_path / "tail"
    code = run_cli(["tail", "--delta", "0", "--n", "200000", "--seed", "1",
                    "--tolerance", "0.25", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert "slope" in report and "sensitivity" in report
    assert code in (0, 1)
    assert report["pass"] == (abs(report["slope"] - report["target"]) <= 0.25)


def test_growth_command(tmp_path):
    out = tmp_path / "growth"
    code = run_cli(["growth", "--delta", "0", "--n", "20000", "--seeds", "3",
                    "--seed", "5", "--vertex", "1", "--tolerance", "0.2",
                    "--checkpoints", "20,200,2000,20000", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert len(report["per_seed_slopes"]) == 3


def test_fringe_compare_small(tmp_path):
    out = tmp_path / "fringe"
    code = run_cli(["fringe-compare", "--delta", "0", "--n", "20000", "--reps", "20000",
                    "--seed", "3", "--tolerance", "0.05", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tv_distance"] <= 0.05
    assert (out / "fringe_empirical.csv").exists()
    assert (out / "fringe_bp.csv").exists()


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_selftest_negative_control(monkeypatch, capsys):
    # corrupt the exponent closed form; the Malthusian identity must then fail
    real = seritree.limits.exponents

    def wrong(delta):
        pack = real(delta)
        object.__setattr__(pack, "lam", pack.lam * 1.01)
        return pack

    monkeypatch.setattr(seritree.limits, "exponents", wrong)
    assert run_cli(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["grow", "--n", "10", "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,threads,code", [
    (["limit-pmf", "--delta", "0", "--seed", "1", "--reps", "0"], None, 2),
    (["fringe-compare", "--delta", "0", "--seed", "1", "--n", "100", "--reps", "0"], None, 2),
    (["tail", "--delta", "0", "--seed", "1", "--n", "20"], None, 2),
    (["localcheck", "--delta", "0", "--seed", "1", "--n", "0"], None, 2),
    (["growth", "--delta", "0", "--seed", "1", "--n", "20000", "--seeds", "2"], "abc", 2),
    (["spectrum", "--delta", "0", "--seed", "1", "--n", "3000"], None, 3),
])
def test_invalid_input_exits_before_output(tmp_path, monkeypatch, capsys, argv, threads, code):
    if threads is None:
        monkeypatch.delenv("SERI_THREADS", raising=False)
    else:
        monkeypatch.setenv("SERI_THREADS", threads)
    grown = []
    real_grow = seritree.growth.grow
    monkeypatch.setattr(seritree.growth, "grow", lambda *a, **kw: grown.append(1) or real_grow(*a, **kw))
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    # only the tail fit needs the grown tree to find its input too small
    assert bool(grown) == (argv[0] == "tail")
