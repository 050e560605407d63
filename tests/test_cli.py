import math

from fiberdim import cli, orbits
from fiberdim.cli import main


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


def test_julia_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    assert run(["julia", "--seq", "const:50", "--depth", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "word,re,im,log_deriv"
    assert len(lines) == 5
    assert lines[1].startswith("00,1,0,")
    assert "resolution bound" in capsys.readouterr().out


def test_pressure_zero_column(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["pressure", "--seq", "const:50", "--t", "0:0.4:5", "--n", "2:6",
                "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    zero_rows = [float(r[2]) for r in rows if float(r[1]) == 0.0]
    assert len(zero_rows) == 5
    assert all(abs(v - math.log(2)) <= 1e-12 for v in zero_rows)


def test_pressure_deterministic_across_workers(tmp_path, monkeypatch):
    # The sums come from the fiber point table in one process at any block
    # size, so --workers changes nothing; 2^3-leaf blocks change no table.
    for block_log2, worker_counts in ((18, (1, 2, 8)), (3, (1, 2, 3))):
        monkeypatch.setattr(orbits, "_BLOCK_LOG2", block_log2)
        for anchor in ("1", "-1.05+0.1i"):
            blobs = []
            for workers in worker_counts:
                out = tmp_path / f"p{workers}.csv"
                assert run(["pressure", "--seq", "periodic:50,60+10i", "--t", "0:0.3:7",
                            "--n", "2:9", f"--anchor={anchor}", "--workers", str(workers),
                            "-o", str(out)]) == 0
                blobs.append(read(out))
            assert blobs[0] == blobs[1] == blobs[2]


def test_perturb_deterministic_across_workers(tmp_path):
    # the scan's cells run in order in one process, so --workers changes nothing
    blobs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"k{workers}.csv"
        assert run(["perturb", "--base", "const:50", "--blocks", "2x2",
                    "--x=-0.06:0.06:5", "--t", "0.18", "--window", "2:10",
                    "--workers", str(workers), "-o", str(out)]) == 0
        blobs.append(read(out))
    assert blobs[0] == blobs[1] == blobs[2]


def test_perturb_gap_mode(tmp_path):
    out = tmp_path / "gap.csv"
    assert run(["perturb", "--base", "const:50", "--mode", "gap", "--x=-0.05:0.05:3",
                "--window", "6:10", "--tol", "1e-4", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,h_lower,h_upper,env_lower,env_upper"
    assert len(lines) == 4


def test_dimension_values(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    assert run(["dimension", "--seq", "const:50", "--window", "10:14",
                "--tol", "1e-4", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "which,t_star,uncertainty,n_window"
    lower = float(lines[1].split(",")[1])
    assert math.log(2) / math.log(200 / 3) <= lower <= math.log(2) / math.log(100 / 3)


def test_spherical_metric_flag(tmp_path):
    planar = tmp_path / "planar.csv"
    spherical = tmp_path / "spherical.csv"
    for metric, out in (("planar", planar), ("spherical", spherical)):
        assert run(["pressure", "--seq", "const:50", "--t", "0.2:0.2:1", "--n", "6:6",
                    "--metric", metric, "-o", str(out)]) == 0
    a_planar = float(planar.read_text().splitlines()[1].split(",")[2])
    a_spherical = float(spherical.read_text().splitlines()[1].split(",")[2])
    assert a_planar != a_spherical
    assert abs(a_planar - a_spherical) < 0.2 * 0.7 / 6  # conformal factor is O(1)


def test_dimension_box_out(tmp_path, capsys):
    roots = tmp_path / "roots.csv"
    box = tmp_path / "box.csv"
    assert run(["dimension", "--seq", "const:50", "--window", "8:12", "--tol", "1e-3",
                "--box-check", "--box-depth", "12", "--box-out", str(box),
                "-o", str(roots)]) == 0
    lines = box.read_text().splitlines()
    assert lines[0] == "eps,count"
    assert lines[-1].startswith("# slope=")
    assert "box-check" in capsys.readouterr().out


def test_motion_exit_code(capsys):
    assert run(["motion", "--base", "const:50", "--x", "0.05", "--depth", "10"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_small(capsys):
    # depth 6 is the smallest the suite accepts; the other specs run at the default depth
    for args in (
        ["--seq", "const:50", "--depth", "8"],
        ["--seq", "const:50", "--depth", "6"],
        ["--seq", "random:seed=7,min=45,max=80"],
        ["--seq", "periodic:50,60+10i,-45"],
        ["--seq", "perturb:base=const:60;blocks=2x2;x=0.1"],
    ):
        assert run(["verify", *args]) == 0, args
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "verify: 25/25 checks passed" in out


def test_usage_errors(tmp_path, capsys):
    assert run(["julia"]) == 2  # missing --seq
    capsys.readouterr()
    assert run(["julia", "--seq", "const:30", "--depth", "2"]) == 2  # modulus too small
    err = capsys.readouterr().err
    assert "grammar" in err
    assert run(["pressure", "--seq", "const:50", "--t", "bad"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    # non-finite parameters, empty or non-finite grids, t and tol, verify depths
    # outside [6, cap]
    for args in (
        ["julia", "--seq", "const:nan", "--depth", "2"],
        ["julia", "--seq", "const:1e400", "--depth", "2"],
        ["julia", "--seq", "random:seed=1,min=45,max=inf", "--depth", "2"],
        # a seed past the 64-bit Philox key word
        ["pressure", "--seq", "random:seed=18446744073709551616,min=45,max=80", "--n", "4:5",
         "--t", "0:0.4:3"],
        # a random spec without its seed, and unknown or repeated spec keys
        ["pressure", "--seq", "random:min=45", "--n", "3:4", "--t", "0:0.4:3"],
        ["perturb", "--base", "random:min=45", "--x=-0.1:0.1:3", "--window", "2:4"],
        ["pressure", "--seq", "perturb:base=random:min=45;x=0.1", "--n", "3:4", "--t", "0:0.4:3"],
        ["pressure", "--seq", "random:seed=1,mx=60", "--n", "3:4", "--t", "0:0.4:3"],
        ["pressure", "--seq", "random:seed=1,seed=2", "--n", "3:4", "--t", "0:0.4:3"],
        ["pressure", "--seq", "explicit:41;tail=50,foo=1", "--n", "3:4", "--t", "0:0.4:3"],
        ["pressure", "--seq", "perturb:base=const:50;x=0.1;x=0.2", "--n", "3:4", "--t", "0:0.4:3"],
        ["pressure", "--seq", "const:50", "--t", "nan:1:3", "--n", "2:4"],
        ["pressure", "--seq", "const:50", "--t", "0:inf:3", "--n", "2:4"],  # linspace warned
        ["pressure", "--seq", "const:50", "--t", "0:0.4:0", "--n", "2:4"],
        ["perturb", "--base", "const:50", "--x=0:0:0", "--window", "2:4"],
        ["perturb", "--base", "const:50", "--mode", "gap", "--x=0:0:0", "--window", "2:4"],
        ["perturb", "--base", "const:50", "--t", "inf", "--window", "2:4"],
        ["dimension", "--seq", "const:50", "--window", "4:6", "--tol", "inf"],
        ["verify", "--seq", "const:50", "--depth", "5"],
        ["verify", "--seq", "const:50", "--depth", "0"],
        ["verify", "--seq", "const:50", "--depth", "27"],
        ["verify", "--seq", "const:50", "--tol", "inf"],
        ["verify", "--seq", "const:50", "--tol", "nan"],
        # a tol below the float resolution of a_n, found while refining a Bowen zero
        ["verify", "--seq", "const:50", "--depth", "8", "--tol", "1e-20"],
        # --workers exists only on pressure and perturb, which ignore it
        ["julia", "--seq", "const:50", "--depth", "2", "--workers", "2"],
        ["dimension", "--seq", "const:50", "--window", "4:6", "--workers", "2"],
        ["motion", "--base", "const:50", "--depth", "4", "--workers", "2"],
        ["verify", "--seq", "const:50", "--depth", "8", "--workers", "2"],
        # --anchor exists only where it is read (every subcommand but verify)
        ["verify", "--seq", "const:50", "--depth", "8", "--anchor=-1.05+0.1i"],
        # output paths that cannot be opened (--box-out is opened before -o)
        ["dimension", "--seq", "const:50", "--window", "3:4",
         "-o", str(tmp_path / "no" / "x.csv")],
        ["dimension", "--seq", "const:50", "--window", "3:4", "--box-check", "--box-depth", "12",
         "--box-out", str(tmp_path / "no" / "x.csv"), "-o", str(tmp_path / "unwritten.csv")],
    ):
        assert run(args) == 2, args
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "unwritten.csv").exists()  # no roots CSV before the box CSV opens
    # rejected without output: a box depth under 1000 points or above the cap, a
    # tol below the float resolution of a_n (rejected before the first step), and
    # --box-out without --box-check
    out = tmp_path / "roots.csv"
    box = tmp_path / "box.csv"
    for args in (
        ["dimension", "--seq", "const:50", "--window", "6:8", "--box-check", "--box-depth", "9"],
        ["dimension", "--seq", "const:50", "--window", "6:8", "--box-check", "--box-depth", "30"],
        ["dimension", "--seq", "const:50", "--window", "4:6", "--tol", "1e-20"],
        ["dimension", "--seq", "const:50", "--window", "4:6", "--box-out", str(box)],
    ):
        assert run([*args, "-o", str(out)]) == 2, args
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == "", args
        assert not out.exists() and not box.exists(), args


def test_box_depth_rejected_before_the_roots(monkeypatch, capsys):
    # the box count runs after the Bowen zeros, but --box-depth is checked first
    def no_roots(*args, **kwargs):
        raise AssertionError("dimension_pair ran before --box-depth was checked")

    monkeypatch.setattr(cli, "dimension_pair", no_roots)
    for depth, message in (("9", "need at least 1000 points, got 512"), ("30", "exceeds cap")):
        args = ["dimension", "--seq", "const:50", "--window", "6:8", "--box-check",
                "--box-depth", depth]
        assert run(args) == 2, depth
        assert message in capsys.readouterr().err, depth


def test_depth_cap_respects_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIBERDIM_DEPTH_LIMIT", "5")
    out = tmp_path / "cloud.csv"
    assert run(["julia", "--seq", "const:50", "--depth", "6", "-o", str(out)]) == 2
    capsys.readouterr()
    assert run(["julia", "--seq", "const:50", "--depth", "5", "-o", str(out)]) == 0
    capsys.readouterr()


def test_config_file_defaults_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("t=0:0.2:3\nn=2:4\nseq=const:50\n# comment line\n")
    out1 = tmp_path / "a.csv"
    assert run(["pressure", "--config", str(config), "-o", str(out1)]) == 0
    rows = out1.read_text().splitlines()
    assert len(rows) == 1 + 3 * 3

    # explicit flag overrides the config value
    out2 = tmp_path / "b.csv"
    assert run(["pressure", "--config", str(config), "--n", "2:3", "-o", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 2 * 3


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    assert run(["pressure", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert run(["pressure", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_stdout_output(capsys):
    assert run(["julia", "--seq", "const:50", "--depth", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("word,re,im,log_deriv")
    assert "resolution bound" in captured.err
