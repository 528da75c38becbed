from repstab.cli import dispatch


def run(*argv):
    return dispatch(list(argv))


def test_branch_worked_example():
    code, text = run("branch", "--lambda", "3,2,1", "--n", "7")
    assert code == 0
    assert text.splitlines() == ["4,2,1\t1", "3,3,1\t1", "3,2,2\t1", "3,2,1,1\t1"]


def test_branch_verify_passes():
    code, text = run("branch", "--lambda", "1,1", "--n", "4", "--verify")
    assert code == 0
    assert text.splitlines()[-1] == "verify\tPASS"


def test_chartable_n1():
    code, text = run("chartable", "--n", "1")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2  # header + single row
    assert lines[1].split() == ["1", "1"]


def test_betti_golden():
    code, text = run("betti", "--manifold", "torus", "--n", "4", "--i", "4")
    assert (code, text) == (0, "4")


def test_betti_env_budget(monkeypatch):
    monkeypatch.setenv("REPSTAB_BUDGET", "10")
    code, text = run("betti", "--manifold", "torus", "--n", "4", "--i", "4")
    assert code == 2
    assert "budget" in text


def test_betti_bad_env_budget(monkeypatch):
    monkeypatch.setenv("REPSTAB_BUDGET", "abc")
    code, text = run("betti", "--manifold", "torus", "--n", "4", "--i", "4")
    assert code == 2
    assert text.startswith("error: ") and "REPSTAB_BUDGET" in text


def test_color_betti():
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "3", "--i", "1")
    assert code == 0
    assert text.isdigit()


def test_ranges_golden():
    code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", "4")
    assert code == 0
    for line in text.splitlines():
        page, stable, mono = line.split("\t")
        assert stable == "n >= 2(p+q)"
        assert mono == "n >= 2(p+q-1)"
    code, text = run("ranges", "--m", "4", "--ell", "0", "--pages", "2")
    assert text == "2\tn >= 4(p+q)\tn >= 4(p+q-1)"
    code, text = run("ranges", "--m", "1", "--ell", "1", "--pages", "2")
    assert text == "2\tn >= p+q+1\tn >= p+q"


def test_ranges_rational_m():
    code, text = run("ranges", "--m", "1/3", "--ell", "3", "--pages", "2")
    assert code == 0
    assert text == "2\tn >= (1/3)(p+q+3)\tn >= (1/3)(p+q+2)"


def test_ranges_rejects_nonpositive_m():
    code, text = run("ranges", "--m", "0", "--ell", "0")
    assert code == 2


def test_ranges_rejects_too_few_pages():
    for pages in ("-1", "1"):
        code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", pages)
        assert code == 2
        assert text == f"ranges: need pages >= 2, got {pages}"


def test_ranges_for_rejects_negative_degree():
    code, text = run("ranges-for", "--manifold", "torus", "--i", "-1")
    assert (code, text) == (2, "error: need i >= 0, got -1")


def test_ranges_for():
    code, text = run("ranges-for", "--manifold", "torus", "--i", "3")
    rows = dict(line.split("\t") for line in text.splitlines())
    assert rows["ordered"] == "n >= 12"
    assert rows["unordered"] == "n >= 4"


def test_arnold_output():
    code, text = run("arnold", "--m", "3", "--d", "2")
    assert code == 0
    assert "poincare\t1 + 3t + 2t^2" in text
    assert "top_irrep\t2,1\t1" in text


def test_e2_explicit_agreement():
    code, text = run("e2", "--manifold", "s2", "--n", "2", "--explicit")
    assert code == 0
    assert "explicit\tagree" in text


def test_e2_rejects_negative_n():
    for extra in ((), ("--explicit",)):
        code, text = run("e2", "--manifold", "torus", "--n", "-1", *extra)
        assert (code, text) == (2, "error: need n >= 0, got -1")


def test_monotone_command():
    code, text = run("monotone", "--lambda", "1", "--n-max", "4")
    assert code == 0
    assert all(line.endswith("ok") for line in text.splitlines())


def test_stable_command():
    code, text = run("stable", "--lambda", "1", "--n-max", "5")
    assert code == 0
    assert text.splitlines()[-1].startswith("stable_from\t2")


def test_stable_short_window_exits_2():
    code, text = run("stable", "--lambda", "2", "--n-max", "2")
    assert code == 2
    assert text == "error: window [2, 2] has no map to check"


def test_monotone_empty_window_exits_2():
    code, text = run("monotone", "--lambda", "1", "--n-max", "1")
    assert code == 2
    assert text == "error: window [1, 1] has no map to check"


def test_unknown_subcommand_exits_2():
    code, _ = run("frobnicate")
    assert code == 2


def test_bad_manifold_exits_2():
    code, text = run("betti", "--manifold", "nowhere", "--n", "2", "--i", "1")
    assert code == 2
    assert "error" in text


def test_directory_as_manifold_exits_2(tmp_path):
    code, text = run("betti", "--manifold", str(tmp_path), "--n", "2", "--i", "1")
    assert code == 2
    assert text.startswith(f"error: cannot read descriptor {str(tmp_path)!r}")


def test_color_betti_rejects_negative_degree():
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "2", "--i", "-1")
    assert (code, text) == (2, "error: need n, i >= 0")


def test_bad_partition_exits_2():
    code, text = run("branch", "--lambda", "1,2", "--n", "4")
    assert code == 2


def test_deterministic_output():
    a = run("e2", "--manifold", "torus", "--n", "3")
    b = run("e2", "--manifold", "torus", "--n", "3")
    assert a == b


def test_pretty_format():
    code, text = run("--format", "pretty", "ranges", "--m", "2", "--ell", "0", "--pages", "2")
    assert code == 0
    assert "\t" not in text


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repstab.cli", "betti", "--manifold", "torus", "--n", "3", "--i", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_betti_zero_denominator_exits_2(tmp_path):
    path = tmp_path / "bad.desc"
    path.write_text("dim 2\nclass 1 0\nclass a 1\nclass b 1\nclass pt 2\nmul a b pt 1/0\n")
    code, text = run("betti", "--manifold", str(path), "--n", "2", "--i", "1")
    assert code == 2
    assert text == f"error: {path}:6: cannot parse 'mul a b pt 1/0'"
