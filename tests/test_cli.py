import json
import os
import subprocess
import sys

import pytest

import cubedist
from cubedist import cube, identities, negtype, search, trees, verify
from cubedist.cli import main
from cubedist.cube import parse_point_set
from cubedist.errors import DomainError
from oracle import count_calls, record_pools, sanchez_wp_oracle

H3_FILE = "3 4\n000\n100\n010\n111\n"
DEP_FILE = "2 4\n00\n10\n01\n11\n"
PATH_FILE = "2 3\n00\n10\n11\n"
CORNER_FILE = "3 3\n000\n100\n010\n"
# patterns {0, 3, 5, 9, 14} of H_4: distances up to 3, so exponents from
# p = 320.8 on are refused
WIDE5_FILE = "4 5\n0000\n1100\n1010\n1001\n0111\n"
STAR4_TREE = "4\n0 1\n0 2\n0 3\n"


@pytest.fixture
def h3(tmp_path):
    f = tmp_path / "h3.txt"
    f.write_text(H3_FILE)
    return str(f)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestReport:
    def test_h3_values(self, capsys, h3):
        code, js = run_json(capsys, ["report", h3])
        assert code == 0
        assert js["det_D"] == "-12"
        assert js["dinv_ones"] == "2/3"
        assert js["gram_quad"] == "3"
        assert js["affinely_independent"] is True

    def test_dependent_set(self, capsys, tmp_path):
        f = tmp_path / "dep.txt"
        f.write_text(DEP_FILE)
        code, js = run_json(capsys, ["report", str(f)])
        assert code == 0
        assert js["det_D"] == "0"
        assert "dinv_ones" not in js

    def test_dependent_set_skips_the_distance_matrix(self, monkeypatch, capsys, tmp_path):
        """1,600 points of H_12: the Gram kernel proves the set dependent
        within 13 points, so det(D) = 0 without building or eliminating D."""
        f = tmp_path / "big.txt"
        rows = [format((37 * i + 11) % 4096, "012b") for i in range(1600)]
        f.write_text("12 1600\n" + "\n".join(rows) + "\n")
        calls = count_calls(monkeypatch, cube, "distance_rows")
        count_calls(monkeypatch, identities, "det_int", calls=calls)
        code, js = run_json(capsys, ["report", str(f)])
        assert code == 0
        assert js == {"affinely_independent": False, "det_D": "0", "det_G": "0", "vol_sq": "0"}
        assert calls == {}

    def test_independent_set_skips_the_distance_matrix(self, monkeypatch, capsys, tmp_path):
        """{0, e_1, ..., e_64} in H_64: every field comes from the Gram
        kernel, det(D) = (-1)^m 2^(m-1) det(G) <G^{-1}u, u> = 64 * 2^63,
        without building or eliminating D."""
        f = tmp_path / "simplex64.txt"
        rows = ["0" * 64] + ["0" * k + "1" + "0" * (63 - k) for k in range(64)]
        f.write_text("64 65\n" + "\n".join(rows) + "\n")
        calls = count_calls(monkeypatch, cube, "distance_rows")
        count_calls(monkeypatch, identities, "det_int", calls=calls)
        code, js = run_json(capsys, ["report", str(f)])
        assert code == 0
        assert js == {
            "affinely_independent": True,
            "det_D": "590295810358705651712",  # 64 * 2^63
            "det_G": "1",
            "vol_sq": "1",
            "gram_quad": "64",
            "dinv_ones": "1/32",
        }
        assert calls == {}

    def test_malformed_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("3 2\n10x\n010\n")
        assert main(["report", str(f)]) == 2
        assert "line" in capsys.readouterr().err

    def test_degenerate_exit_3(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("3 2\n101\n101\n")
        assert main(["report", str(f)]) == 3

    def test_missing_file_exit_2(self):
        assert main(["report", "/nonexistent/file.txt"]) == 2

    def test_output_file(self, tmp_path, h3):
        out = tmp_path / "out.json"
        assert main(["report", h3, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["det_D"] == "-12"


class TestUnusableFiles:
    """Files that cannot be read or written give one error line and
    exit 2, like a missing file."""

    @pytest.mark.parametrize(
        "argv",
        [["report", "{dir}"], ["tree", "{dir}"], ["negtype", "{latin1}"], ["report", "{h3}", "-o", "{dir}"]],
        ids=["report-directory", "tree-directory", "negtype-not-utf8", "report-output-directory"],
    )
    def test_exit_2(self, capsys, tmp_path, h3, argv):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("3 2\n000\n100\n# é\n".encode("latin-1"))
        paths = {"dir": str(tmp_path), "latin1": str(latin1), "h3": h3}
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTree:
    def test_star4(self, capsys, tmp_path):
        f = tmp_path / "star.txt"
        f.write_text(STAR4_TREE)
        code, js = run_json(capsys, ["tree", str(f)])
        assert code == 0
        assert js["det"] == "-12"
        assert js["dinv_ones"] == "2/3"
        assert js["inverse_entries"][0][0] == "-4/3"

    def test_dinv_ones_reads_the_closed_form_inverse(self, monkeypatch, capsys, tmp_path):
        f = tmp_path / "star.txt"
        f.write_text(STAR4_TREE)
        real = trees.scaled_inverse_rows

        def perturbed(t):
            rows = real(t)
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(trees, "scaled_inverse_rows", perturbed)
        code, js = run_json(capsys, ["tree", str(f)])
        assert code == 0
        assert js["dinv_ones"] == "5/6"

    def test_cycle_exit_3(self, tmp_path):
        f = tmp_path / "cycle.txt"
        f.write_text("4\n0 1\n1 2\n2 0\n")
        assert main(["tree", str(f)]) == 3

    def test_bad_line_exit_2(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 1\nnope\n")
        assert main(["tree", str(f)]) == 2

    def test_wrong_closed_form_exit_5(self, monkeypatch, tmp_path, capsys):
        f = tmp_path / "star.txt"
        f.write_text(STAR4_TREE)
        monkeypatch.setattr("cubedist.cli.trees.graham_pollak_det", lambda t: 7)
        assert main(["tree", str(f)]) == 5
        assert "closed form 7" in capsys.readouterr().err


class TestNegtype:
    def test_path_wp(self, capsys, tmp_path):
        f = tmp_path / "path.txt"
        f.write_text(PATH_FILE)
        code, js = run_json(capsys, ["negtype", str(f)])
        assert code == 0
        assert abs(js["wp"] - 2.0) <= 1e-6
        assert js["root_kind"] == "bordered"

    def test_dependent_exact(self, capsys, tmp_path):
        f = tmp_path / "dep.txt"
        f.write_text(DEP_FILE)
        code, js = run_json(capsys, ["negtype", str(f)])
        assert code == 0
        assert js["wp"] == 1.0
        assert js["residual"] == 0.0

    def test_cap_reported_as_lower_bound(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("3 2\n000\n110\n")
        code, js = run_json(capsys, ["negtype", str(f), "--cap", "4"])
        assert code == 0
        assert "wp" not in js
        assert js["wp_lower_bound"] == 4.0
        assert js["root_kind"] == "none-below-cap"

    def test_bad_tol_exit_3(self, tmp_path):
        f = tmp_path / "path.txt"
        f.write_text(PATH_FILE)
        assert main(["negtype", str(f), "--tol", "-1"]) == 3

    @pytest.mark.parametrize(
        "flags,code",
        [
            (["--cap", "inf"], 3),
            (["--cap", "nan"], 3),
            (["--grid", "nan"], 3),
            (["--tol", "inf"], 3),
            (["--grid", "1e-12"], 4),
        ],
    )
    def test_bad_scan_flags_refused(self, monkeypatch, capsys, tmp_path, flags, code):
        monkeypatch.setattr(negtype, "_scan_for_roots", None)  # refused before any scan
        f = tmp_path / "corner.txt"
        f.write_text(CORNER_FILE)
        assert main(["negtype", str(f), *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_overflowing_cap_refused(self, capsys, tmp_path):
        # past the limit a NaN grid point would close a zero band, so the
        # supremum would move with the cap and the residual print as NaN
        f = tmp_path / "wide5.txt"
        f.write_text(WIDE5_FILE)
        code, js = run_json(capsys, ["negtype", str(f), "--cap", "300", "--grid", "1"])
        assert code == 0 and js["wp"] == 18.0
        for flags in (["--cap", "400", "--grid", "1"], ["--cap", "1e6", "--grid", "100"]):
            assert main(["negtype", str(f), *flags]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "overflows float64" in captured.err

    def test_deterministic_bytes(self, tmp_path):
        f = tmp_path / "path.txt"
        f.write_text(PATH_FILE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["negtype", str(f), "-o", str(a)]) == 0
        assert main(["negtype", str(f), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSearch:
    def test_exhaustive_n3_m3(self, capsys):
        code, js = run_json(capsys, ["search", "--n", "3", "--m", "3"])
        assert code == 0
        assert js["min_value"] == "2/3"
        assert js["violations"] == []

    def test_budget_exit_4(self):
        assert main(["search", "--n", "5", "--m", "5", "--budget", "10"]) == 4

    def test_out_of_range_exit_3(self):
        assert main(["search", "--n", "3", "--m", "9"]) == 3

    def test_unprintable_count_exit_3(self, capsys):
        """C(16383, 8000) has 4,929 digits, past what json prints."""
        assert main(["search", "--n", "14", "--m", "8000"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")

    def test_more_points_than_dimensions_starts_no_pool(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool for a slice with m > n")

        monkeypatch.setattr(search.multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        code, js = run_json(capsys, ["search", "--n", "5", "--m", "20", "--workers", "2"])
        assert code == 0
        assert (js["sets_examined"], js["independent_count"]) == (84_672_315, 0)

    def test_random_mode(self, capsys):
        code, js = run_json(
            capsys, ["search", "--n", "6", "--m", "3", "--mode", "random", "--trials", "50", "--seed", "5"]
        )
        assert code == 0
        assert js["seed"] == 5
        assert js["sets_examined"] == 50

    def test_random_budget_exit_4(self, capsys):
        argv = ["search", "--n", "6", "--m", "3", "--mode", "random", "--trials", "50"]
        assert main(argv + ["--budget", "49"]) == 4
        assert "over budget 49" in capsys.readouterr().err
        assert main(argv + ["--budget", "50"]) == 0

    def test_negative_trials_exit_3(self, capsys):
        argv = ["search", "--n", "6", "--m", "3", "--mode", "random", "--trials", "-1"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "trials must be nonnegative" in err

    def test_worker_flag_equivalence(self, monkeypatch, tmp_path):
        # a host with four CPUs is faked so that four processes really
        # share the first elements, one task each
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        pools = record_pools(monkeypatch, search)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["search", "--n", "4", "--m", "3", "--workers", "1", "-o", str(a)]) == 0
        assert main(["search", "--n", "4", "--m", "3", "--workers", "4", "-o", str(b)]) == 0
        assert pools == [(4, [(4, 3, x, x + 1) for x in range(1, 14)], 1)]
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["search", "--n", "3", "--m", "2", "--frobnicate"])
        assert err.value.code == 2


class TestVerify:
    def test_small_caps_pass(self, capsys):
        code = main(["verify", "--n-cap", "2", "--tree-cap", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "all identities hold" in out

    def test_bad_cap_exit_3(self):
        assert main(["verify", "--n-cap", "1"]) == 3

    def test_injected_fault_gives_nonzero_exit(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            report = verify.SweepReport(label="injected")
            report.counter("poisoned").add(False, "injected fault")
            return [report]

        monkeypatch.setattr("cubedist.cli.verify.run_default_verification", broken)
        assert main(["verify", "--n-cap", "2", "--tree-cap", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @staticmethod
    def _stub_sweeps(monkeypatch, stub):
        for name in ("identity_sweep_exhaustive", "identity_sweep_random", "tree_sweep"):
            monkeypatch.setattr(verify, name, stub)

    @pytest.mark.parametrize(
        "flags,code",
        [
            (["--random-dim", "30"], 3),
            (["--random-dim", "1"], 3),
            (["--n-cap", "5"], 4),
            (["--tree-cap", "12"], 4),
            (["--random-dim", "6", "--random-samples", str(10**7)], 4),
            (["--n-cap", "1"], 3),
            (["--tree-cap", "2"], 3),
            (["--random-dim", "3", "--random-samples", "0"], 3),
            (["--random-dim", "3", "--random-samples", "-5"], 3),
        ],
    )
    def test_runaway_sweeps_refused_before_starting(self, monkeypatch, capsys, flags, code):
        self._stub_sweeps(monkeypatch, None)
        assert main(["verify", *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cap": 1, "tree_cap": 2},
            {"n_cap": 1},
            {"tree_cap": 2},
            {"random_dims": (3,), "random_samples": 0},
        ],
    )
    def test_empty_sweeps_refused_in_python(self, monkeypatch, kwargs):
        """A report that checked nothing would read PASS, so the library
        call refuses it too, before any sweep starts."""
        self._stub_sweeps(monkeypatch, None)
        with pytest.raises(DomainError):
            verify.run_default_verification(**kwargs)

    def test_sweeps_within_budget_run(self, monkeypatch):
        self._stub_sweeps(monkeypatch, lambda *args, **kwargs: verify.SweepReport("stub"))
        assert len(verify.run_default_verification()) == 4
        assert len(verify.run_default_verification(random_dims=(6,), random_samples=2000)) == 5
        # 32,901 sets + 5,063,360 trees + 20,000 samples
        assert len(verify.run_default_verification(tree_cap=9, random_dims=(2, 8))) == 6


def _run_python(args):
    """Run a fresh interpreter that imports this package, wherever it
    was imported from here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cubedist.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _run_optimized(args):
    """Run the interpreter with -O (asserts stripped) on this package."""
    return _run_python(["-O", *args])


def test_package_import_leaves_numpy_unloaded():
    """numpy loads only where `negtype` builds a float matrix. Importing
    the package and its negtype names, sweeping H_3, the determinants of
    a 48-point set and a 40-vertex tree, and every exact negtype answer
    on the subsets of H_3 load none: negative type and strict negative
    type at p = 1, the classification of a dependent set, and `sanchez_wp`
    on dependent sets and pairs. The first independent scan loads it."""
    script = (
        "import sys\n"
        "from itertools import combinations\n"
        "import cubedist, cubedist.verify\n"
        "from cubedist import identities, negtype, sanchez_wp, trees\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cubedist.verify.identity_sweep_exhaustive(3).ok\n"
        "s = cubedist.PointSet.from_bits(8, tuple((37 * i + 11) % 256 for i in range(48)))\n"
        "assert identities.full_report(s).det_D == 0\n"
        "t = trees.prufer_to_tree([i // 2 for i in range(38)], 40)\n"
        "assert trees.tree_det_direct(t) == trees.graham_pollak_det(t)\n"
        "scanned = []\n"
        "for m in range(1, 8):\n"
        "    for tail in combinations(range(1, 8), m):\n"
        "        s = cubedist.PointSet.from_bits(3, (0,) + tail)\n"
        "        assert negtype.is_p_negative_type(s, 1.0)\n"
        "        independent = negtype.strict_p_negative_type(s, 1.0)\n"
        "        if not independent:\n"
        "            assert negtype.murugan_classify(s) == negtype.MuruganClassification(False, False, False)\n"
        "            assert sanchez_wp(s).wp == 1.0\n"
        "        elif m == 1:\n"
        "            assert sanchez_wp(s).is_lower_bound\n"
        "        else:\n"
        "            scanned.append(s)\n"
        "assert 'numpy' not in sys.modules\n"
        "assert sanchez_wp is cubedist.negtype.sanchez_wp\n"
        "print(len(scanned), sanchez_wp(cubedist.PointSet.from_bits(2, (0, 1, 3))).root_kind)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    # 57 independent H_3 tails, 7 of them pairs
    assert proc.stdout == "50 bordered\nTrue\n"


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    """The command line imports `negtype` and its option defaults at the
    top; numpy loads only when the negtype subcommand scans an
    independent set of three or more points."""
    dep, pair, path = tmp_path / "dep.txt", tmp_path / "pair.txt", tmp_path / "path.txt"
    dep.write_text(DEP_FILE)
    pair.write_text("4 2\n0000\n1111\n")
    path.write_text(PATH_FILE)
    script = (
        "import sys\n"
        "import cubedist.cli\n"
        "from cubedist import negtype\n"
        "assert 'numpy' not in sys.modules\n"
        "args = cubedist.cli.build_parser().parse_args(['negtype', 'in.txt'])\n"
        "assert (args.cap, args.tol, args.grid) == "
        "(negtype.DEFAULT_CAP, negtype.DEFAULT_TOL, negtype.DEFAULT_GRID)\n"
        "for f in sys.argv[1:]:\n"
        "    assert cubedist.cli.main(['negtype', f, '-o', f + '.json']) == 0\n"
        "    print('numpy' in sys.modules)\n"
    )
    proc = _run_python(["-c", script, str(dep), str(pair), str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\nTrue\n"
    outputs = [tmp_path / f"{f}.txt.json" for f in ("dep", "pair", "path")]
    kinds = [json.loads(f.read_text())["root_kind"] for f in outputs]
    assert kinds == ["determinant", "none-below-cap", "bordered"]


def test_console_entry_point():
    proc = _run_python(["-m", "cubedist.cli", "search", "--n", "2", "--m", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["min_value"] == "1"


def test_search_under_optimize():
    proc = _run_optimized(["-m", "cubedist.cli", "search", "--n", "3", "--m", "3"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["min_value"] == "2/3"


def test_invariant_checked_under_optimize():
    script = (
        "import sys\n"
        "from cubedist import search\n"
        "from cubedist.cli import main\n"
        "real = search._root_rows\n"
        "def wrong(lo, top):\n"
        "    return [(y, piv, bord + 1) for y, piv, bord in real(lo, top)]\n"
        "search._root_rows = wrong\n"
        "sys.exit(main(['search', '--n', '3', '--m', '3']))\n"
    )
    proc = _run_optimized(["-c", script])
    assert proc.returncode == 5, proc.stderr
    assert "full-dimensional set" in proc.stderr


# (point-set file, root kind the scan reports with the default flags)
NEGTYPE_GOLDEN = {
    "path": (PATH_FILE, "bordered"),
    "h2": (DEP_FILE, "determinant"),
    "two_points": ("3 2\n000\n110\n", "none-below-cap"),
    "dependent_h3": ("3 5\n000\n100\n010\n001\n111\n", "determinant"),
    "determinant_root": ("4 4\n0000\n1000\n0110\n1101\n", "determinant"),
    "bordered_root": ("4 4\n0000\n1000\n0100\n1110\n", "bordered"),
}


@pytest.mark.parametrize("name", sorted(NEGTYPE_GOLDEN))
def test_negtype_json_matches_scalar_scan(name, tmp_path):
    text, kind = NEGTYPE_GOLDEN[name]
    f = tmp_path / f"{name}.txt"
    f.write_text(text)
    proc = _run_python(["-m", "cubedist.cli", "negtype", str(f)])
    assert proc.returncode == 0, proc.stderr
    want = sanchez_wp_oracle(parse_point_set(text)).to_json_dict()
    assert proc.stdout == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert want["root_kind"] == kind
