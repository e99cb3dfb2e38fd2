import hashlib
import json

import pytest

import seritree.analysis
import seritree.cli
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


# sha256 of each table a run writes; the bytes hold for any CPU, as no
# table here comes from LAPACK
TABLE_DIGESTS = [
    (["grow", "--delta", "0", "--seed", "1", "--n", "3000", "--checkpoints", "10,100,1000"], {
        "checkpoints.csv": "5efbf3a7e946482a5dcdae1b68a40c932caa05533ed2d228af6a4e621075aecc",
        "tracked.csv": "52ddcaabf36855c2841b215d989d062f78b93387472a80a15bce9f91917a2023",
    }),
    (["limit-pmf", "--delta", "0", "--seed", "1", "--reps", "3000"], {
        "pmf.csv": "4d6c047421691885fb811e894da579c832305bcb6962c69d2b94dce2516201c0",
    }),
    # both histograms hold an (other) row at these flags
    (["fringe-compare", "--delta", "0", "--seed", "3", "--n", "20000", "--reps", "20000"], {
        "fringe_empirical.csv": "5d80622c08d82dce37ab64fdc1debff28ede6b7ecd22d66712072f2325a0eff8",
        "fringe_bp.csv": "db1c630b0b748ea8e34028fa30624888a34e8c8707be833411933b8b44ec6d61",
    }),
]


@pytest.mark.parametrize("argv,digests", TABLE_DIGESTS, ids=[argv[0] for argv, _ in TABLE_DIGESTS])
def test_table_bytes_are_pinned(tmp_path, argv, digests):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


def test_spectrum_report(tmp_path, monkeypatch):
    # LAPACK's last bits vary by CPU, so the table is checked against the
    # eigenvalues the run computed, not against pinned bytes
    returned = []
    real = seritree.analysis.adjacency_spectrum

    def recorded(tree):
        returned.append(real(tree).eigenvalues)
        return seritree.analysis.SpectrumResult(eigenvalues=returned[-1])

    monkeypatch.setattr(seritree.analysis, "adjacency_spectrum", recorded)
    out = tmp_path / "spec"
    code = run_cli(["spectrum", "--n", "512", "--delta", "0", "--seed", "1",
                    "--out", str(out)])
    assert code == 0
    header, *rows, end = (out / "spectrum.csv").read_bytes().decode().split("\r\n")
    assert (header, end) == ("eigenvalue", "")
    assert len(rows) == 513
    assert [float(x) for x in rows] == returned[0].tolist()
    assert abs(sum(map(float, rows))) <= 1e-6
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["stderr"] is None


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
    assert report["stderr"] is None


def test_tail_small_run(tmp_path):
    out = tmp_path / "tail"
    code = run_cli(["tail", "--delta", "0", "--n", "200000", "--seed", "1",
                    "--tolerance", "0.25", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert "slope" in report and "sensitivity" in report
    assert report["stderr"] is None  # the fit estimates no error
    assert len(report["sensitivity"]) > 1
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
    # mean tracked degrees, which use no LAPACK and so hold on any CPU
    assert report["checkpoints"] == [[20, 9.0], [200, 36.33333333333333], [2000, 154.33333333333331],
                                     [20000, 645.3333333333333]]


def test_fringe_compare_small(tmp_path):
    out = tmp_path / "fringe"
    code = run_cli(["fringe-compare", "--delta", "0", "--n", "20000", "--reps", "20000",
                    "--seed", "3", "--tolerance", "0.05", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tv_distance"] <= 0.05
    assert report["stderr"] is None
    assert (out / "fringe_empirical.csv").exists()
    assert (out / "fringe_bp.csv").exists()


def test_fringe_compare_cap_stops_at_the_node_cap(tmp_path, monkeypatch):
    # a genealogy past --max-size is (other); one past the node cap still exits 3
    monkeypatch.setattr(seritree.limits, "NODE_CAP", 3)
    argv = ["fringe-compare", "--delta", "0", "--n", "100", "--reps", "200", "--seed", "1", "--tolerance", "1"]
    assert run_cli(argv + ["--max-size", "2", "--out", str(tmp_path / "below")]) == 0
    rows = (tmp_path / "below" / "fringe_bp.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"()", "(())", "(other)"}
    assert run_cli(argv + ["--max-size", "3", "--out", str(tmp_path / "above")]) == 3
    assert not (tmp_path / "above").exists()


def test_selftest_passes(selftest_run):
    code, rows, _ = selftest_run
    assert code == 0
    assert rows.count("PASS") == 5
    assert "FAIL" not in rows


def _only_rows(monkeypatch, *names):
    """Make `selftest` run only the named rows, in their usual order."""
    rows = tuple(row for row in seritree.cli.SELFTEST_ROWS if row[0] in names)
    assert len(rows) == len(names)
    monkeypatch.setattr(seritree.cli, "SELFTEST_ROWS", rows)


def test_selftest_negative_control(monkeypatch, capsys):
    # corrupt the exponent closed form; the Malthusian identity must then fail
    _only_rows(monkeypatch, "malthusian-identity (delta grid)")
    real = seritree.limits.exponents

    def wrong(delta):
        pack = real(delta)
        object.__setattr__(pack, "lam", pack.lam * 1.01)
        return pack

    monkeypatch.setattr(seritree.limits, "exponents", wrong)
    assert run_cli(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_spectrum_row_catches_a_wrong_spectrum(monkeypatch, capsys):
    # a spectrum one eigenvalue short on every tree of more than three vertices
    _only_rows(monkeypatch, "sampler-equivalence (exhaustive n<=6)", "spectrum-vs-dense (exhaustive n<=6)")
    real = seritree.analysis.adjacency_spectrum

    def short(tree):
        eig = real(tree).eigenvalues
        return seritree.analysis.SpectrumResult(eigenvalues=eig[1:] if eig.size > 3 else eig)

    monkeypatch.setattr(seritree.analysis, "adjacency_spectrum", short)
    assert run_cli(["selftest"]) == 1
    rows = {line.split("  ")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "FAIL" in rows["spectrum-vs-dense (exhaustive n<=6)"]
    assert "FAIL" not in rows["sampler-equivalence (exhaustive n<=6)"]


def test_selftest_fringe_row_catches_a_wrong_histogram(monkeypatch, capsys):
    # a histogram that moves one counted vertex of every tree to (other)
    _only_rows(monkeypatch, "spectrum-vs-dense (exhaustive n<=6)", "fringe-histogram-vs-per-vertex (exhaustive n<=6)")
    real = seritree.treeops.empirical_fringe_distribution

    def lossy(tree, k=0, truncation=12):
        hist = real(tree, k=k, truncation=truncation)
        if hist.counts:
            hist.counts[min(hist.counts)] -= 1
            hist.other += 1
        return hist

    monkeypatch.setattr(seritree.treeops, "empirical_fringe_distribution", lossy)
    assert run_cli(["selftest"]) == 1
    rows = {line.split("  ")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "FAIL" in rows["fringe-histogram-vs-per-vertex (exhaustive n<=6)"]
    assert "FAIL" not in rows["spectrum-vs-dense (exhaustive n<=6)"]


def test_selftest_sampler_row_catches_a_wrong_target(monkeypatch, capsys):
    # a target map that sends draw 0 of every step to the next vertex
    _only_rows(monkeypatch, "sampler-equivalence (exhaustive n<=6)", "spectrum-vs-dense (exhaustive n<=6)")
    real = seritree.growth._token_targets

    def shifted(parent, r, n1, d2, convention):
        target = real(parent, r, n1, d2, convention)
        target[0] = (target[0] + 1) % int(n1[0])
        return target

    monkeypatch.setattr(seritree.growth, "_token_targets", shifted)
    assert run_cli(["selftest"]) == 1
    rows = {line.split("  ")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "FAIL" in rows["sampler-equivalence (exhaustive n<=6)"]
    assert "FAIL" not in rows["spectrum-vs-dense (exhaustive n<=6)"]


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["grow", "--n", "10", "--seed", "1"])
    assert exc.value.code == 2


INVALID_INPUTS = [
    (["limit-pmf", "--delta", "0", "--seed", "1", "--reps", "0"], 2),
    (["fringe-compare", "--delta", "0", "--seed", "1", "--n", "100", "--reps", "0"], 2),
    (["tail", "--delta", "0", "--seed", "1", "--n", "20"], 2),
    (["localcheck", "--delta", "0", "--seed", "1", "--n", "0"], 2),
    # a silent pass on a model whose v0 weight goes negative: the default
    # exact convention needs delta >= -1/2
    (["localcheck", "--delta", "-0.75", "--seed", "1"], 2),
    (["spectrum", "--delta", "0", "--seed", "1", "--n", "3000"], 3),
    # the last step's token bound 2n(n+1) reaches 2^64
    (["grow", "--delta", "0", "--seed", "1", "--n", "3037000501"], 2),
    # these slipped through: a wrong exit code, a silent pass, a traceback or no error
    (["growth", "--delta", "0", "--seed", "1", "--n", "20000", "--vertex", "-1"], 2),
    (["growth", "--delta", "0", "--seed", "1", "--n", "500"], 2),  # default checkpoint n // 1000 = 0
    (["fringe-compare", "--delta", "0", "--seed", "1", "--n", "100", "--max-size", "-5"], 2),
    (["tail", "--delta", "0", "--seed", "1", "--n", "100000", "--tolerance", "nan"], 2),
    # a traceback with exit 1, and a report holding NaN that failed as a check
    (["limit-pmf", "--delta", "inf", "--seed", "1", "--reps", "10"], 2),
    (["localcheck", "--delta", "inf", "--seed", "1"], 2),
    # a TypeError from np.polyfit with exit 1: `grow` drops a repeated checkpoint
    (["growth", "--delta", "0", "--seed", "1", "--n", "1000", "--checkpoints", "1,10,100,1000,1000"], 2),
    (["growth", "--delta", "0", "--seed", "1", "--n", "1000", "--checkpoints", "1,1,1,1000"], 2),
]


# the ids keep the names these cases had while a middle column set SERI_THREADS
@pytest.mark.parametrize(
    "argv,code", INVALID_INPUTS, ids=[f"argv{i}-None-{code}" for i, (_, code) in enumerate(INVALID_INPUTS)]
)
def test_invalid_input_exits_before_output(tmp_path, monkeypatch, capsys, argv, code):
    grown = []
    real_grow = seritree.growth.grow
    monkeypatch.setattr(seritree.growth, "grow", lambda *a, **kw: grown.append(1) or real_grow(*a, **kw))
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    # only the tail fit needs the grown tree to find its --n too small
    assert bool(grown) == (argv[0] == "tail" and "--tolerance" not in argv)


def test_growth_names_n_when_the_default_first_checkpoint_is_zero(tmp_path, capsys):
    # this used to say "checkpoints must be >= 1, got 0" with no --checkpoints given
    out = tmp_path / "out"
    assert run_cli(["growth", "--delta", "0", "--seed", "1", "--n", "10", "--seeds", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --n 10 is below 1000, so the default first checkpoint n // 1000 is 0\n"
    assert not out.exists()
