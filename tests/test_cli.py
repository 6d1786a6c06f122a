import json
import subprocess
import sys
import time

import pytest

from unityroot import (HPComplex, HPReal, NoConvergence, cli, descent,
                       dft_forward, solve_unity, solver)
from unityroot.cli import (EXIT_DOMAIN, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                           main, parse_args)
from unityroot.hpreal import DECIMAL_MAX_MAGNITUDE
from unityroot.solver import MAX_N
from conftest import clear_caches


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestZetaCommand:
    def test_n6_payload(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["n"] == 6
        assert doc["precision"] == 128
        assert doc["a"] == "0.5"
        assert doc["b"].startswith("0.86602540378")
        assert "certificate" not in doc

    def test_numbers_round_trip_to_exact_bits(self, capsys):
        from unityroot import construct_zeta

        code, out = run_cli(capsys, "zeta", "--n", "10")
        doc = json.loads(out)
        zeta = construct_zeta(10)
        assert HPReal.from_decimal(doc["a"], 128) == zeta.a
        assert HPReal.from_decimal(doc["b"], 128) == zeta.b
        assert HPReal.from_decimal(doc["r"], 128) == zeta.r

    def test_certificate_included_on_request(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "12", "--certificate")
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["p"] == 6
        assert len(cert["xs"]) == 7
        assert all(cert["checks"].values())

    def test_certificate_for_odd_n_uses_doubled_basis(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "5", "--certificate")
        doc = json.loads(out)
        assert doc["certificate"]["n"] == 10
        assert doc["certificate"]["p"] == 5

    def test_certificate_null_for_trivial_n(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "4", "--certificate")
        assert json.loads(out)["certificate"] is None

    def test_precision_past_the_interpreter_digit_limit(self, capsys):
        # r = sqrt(2) prints with over 4500 digits at 15000 bits
        code, out = run_cli(capsys, "zeta", "--n", "4", "--precision", "15000")
        assert code == EXIT_OK
        r = HPReal.from_decimal(json.loads(out)["r"], 15000)
        assert r == HPReal.from_int(2, 15000).sqrt()


class TestRootsCommand:
    def test_n4_roots(self, capsys):
        code, out = run_cli(capsys, "roots", "--n", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["roots"]) == 4
        res = HPReal.from_decimal(doc["residual_bound"], 128)
        assert res <= HPReal.pow2(-64)
        pairs = {(r["re"], r["im"]) for r in doc["roots"]}
        assert ("1", "0") in pairs and ("-1", "0") in pairs

    def test_byte_determinism(self, capsys):
        _, first = run_cli(capsys, "roots", "--n", "9")
        _, second = run_cli(capsys, "roots", "--n", "9")
        assert first == second


class TestOrderCommand:
    def test_example(self, capsys):
        code, out = run_cli(capsys, "order", "--n", "6", "--m", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["order"] == 3
        assert doc["is_primitive"] is False
        assert doc["gcd"] == 2

    def test_primitive_case(self, capsys):
        code, out = run_cli(capsys, "order", "--n", "7", "--m", "3")
        doc = json.loads(out)
        assert doc["order"] == 7 and doc["is_primitive"] is True

    def test_zeta_power_at_32_bits(self, capsys):
        # zeta.pow(325) carried an error near n m 2**-32, past the tolerance
        # 2**-16: NotARoot, exit 1
        code, out = run_cli(capsys, "order", "--n", "326", "--m", "325",
                            "--precision", "32")
        assert code == EXIT_OK
        assert json.loads(out)["order"] == 326

    @pytest.mark.parametrize("m", ["0", "7"])
    def test_m_outside_one_to_n_is_invalid_m(self, capsys, m):
        code, out = run_cli(capsys, "order", "--n", "6", "--m", m)
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "InvalidM"


class TestVerifyCommand:
    def test_n12_full_chain(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "12")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["certificate"]["p"] == 6
        assert all(doc["checks"].values())

    def test_trivial_n_skips_certificate(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["certificate"] is None
        assert doc["passed"] is True

    def test_odd_n_verifies_via_doubled_basis(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "9")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["certificate"]["n"] == 18

    def test_n1024_at_32_bits_passes(self, capsys):
        # the sampled arc check failed this correct zeta and exited 2
        code, out = run_cli(capsys, "verify", "--n", "1024", "--precision", "32")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_n4096_at_32_bits_passes(self, capsys):
        # exited 2 with failed_checks [arc_exclusion]: the enclosures charged
        # the whole drift k |w - omega| to the real parts
        code, out = run_cli(capsys, "verify", "--n", "4096", "--precision", "32")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True and doc["certificate"]["checks"]["arc_exclusion"]

    @pytest.mark.parametrize("n", [6100, 8192, 16384, 32768])
    def test_large_n_at_32_bits_passes(self, capsys, n):
        # exited 2 with failed_checks [arc_exclusion]: the enclosures added
        # the radial drifts of x_k - Re P_k and of Re P_k - Re omega^k,
        # equal and opposite, as absolute values
        code, out = run_cli(capsys, "verify", "--n", str(n), "--precision", "32")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True and doc["certificate"]["checks"]["arc_exclusion"]

    def test_failed_certificate_exits_2(self, capsys, monkeypatch):
        # no input known inside the domain fails a check, so a rejecting
        # arc exclusion stands in for one: `verify` reports the failed
        # checks and `zeta --certificate` the CertificateFailure
        monkeypatch.setattr(descent, "_arc_exclusion_ok", lambda *args: False)
        code, out = run_cli(capsys, "verify", "--n", "12")
        doc = json.loads(out)
        assert code == EXIT_NUMERICAL and doc["passed"] is False
        assert doc["failed_checks"] == ["arc_exclusion", "certificate_passed"]
        code, out = run_cli(capsys, "zeta", "--n", "12", "--certificate")
        doc = json.loads(out)
        assert code == EXIT_NUMERICAL and doc["error"] == "CertificateFailure"
        assert doc["failed_checks"] == ["arc_exclusion"]
        assert doc["certificate"]["checks"]["arc_exclusion"] is False

    def test_verify_never_builds_the_roots(self, capsys, monkeypatch):
        # the unity sets hold their representatives: zeta, the certificate
        # and the order read single entries as integer pairs
        def build(*args):
            raise AssertionError("the n roots were built")

        monkeypatch.setattr(solver, "_unity_roots", build)
        clear_caches()
        for n in ("150", "149", "12", "3"):
            code, out = run_cli(capsys, "verify", "--n", n)
            assert code == EXIT_OK and json.loads(out)["passed"], n


class TestRootsOfCommand:
    def test_cube_roots_of_minus_eight(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "3", "--c-re", "-8")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["c"] == {"re": "-8", "im": "0"}
        res = [HPReal.from_decimal(r["re"], 128).to_float() for r in doc["roots"]]
        assert any(abs(v + 2) < 1e-30 for v in res)

    def test_decimal_components(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "2",
                            "--c-re", "0", "--c-im", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["roots"]) == 2

    def test_zero_target_is_domain_error(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "3", "--c-re", "0")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "ZeroTarget"

    def test_malformed_decimal_is_domain_error(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "3", "--c-re", "abc")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("c_re", ["1e12000", "1e-12000"])
    def test_targets_past_the_interpreter_digit_limit(self, capsys, c_re):
        # c and its root print with over 12000 digits
        code, out = run_cli(capsys, "roots-of", "--n", "1", "--c-re", c_re)
        assert code == EXIT_OK
        doc = json.loads(out)
        want = HPReal.from_decimal(c_re)
        assert HPReal.from_decimal(doc["c"]["re"]) == want
        assert HPReal.from_decimal(doc["roots"][0]["re"]) == want

    def test_huge_exponent_is_rejected_at_once(self, capsys):
        # the parser built 10**999999999 exactly: about 415 MB
        start = time.perf_counter()
        code, out = run_cli(capsys, "roots-of", "--n", "2",
                            "--c-re", "1e999999999")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "DomainError"

    def test_tiny_magnitude_is_rejected(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "2",
                            "--c-re", "0." + "0" * 10 ** 6 + "1")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "DomainError"

    def test_magnitude_at_the_bound_is_accepted(self, capsys):
        code, out = run_cli(capsys, "roots-of", "--n", "1",
                            "--c-re", f"1e{DECIMAL_MAX_MAGNITUDE}")
        assert code == EXIT_OK
        assert len(json.loads(out)["c"]["re"]) == DECIMAL_MAX_MAGNITUDE + 1


class TestDftCommand:
    def test_transform_matches_library(self, tmp_path, capsys):
        values = [{"re": "1", "im": "0"}, {"re": "0", "im": "1"},
                  {"re": "-0.5", "im": "0"}, {"re": "0", "im": "0"}]
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"n": 4, "values": values}))
        code, out = run_cli(capsys, "dft", "--input", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        xs = [HPComplex(HPReal.from_decimal(v["re"]), HPReal.from_decimal(v["im"]))
              for v in values]
        want = dft_forward(xs, 128)
        for got, expect in zip(doc["transform"], want):
            assert HPReal.from_decimal(got["re"], 128) == expect.re
            assert HPReal.from_decimal(got["im"], 128) == expect.im

    def test_length_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"n": 3, "values": [{"re": "1", "im": "0"}]}))
        code, out = run_cli(capsys, "dft", "--input", str(path))
        assert code == EXIT_DOMAIN

    def test_flag_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"values": [{"re": "1", "im": "0"}]}))
        code, out = run_cli(capsys, "dft", "--n", "2", "--input", str(path))
        assert code == EXIT_DOMAIN

    def test_digit_count_past_the_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"values": [{"re": "1." + "1" * 10 ** 6,
                                                "im": "0"}]}))
        code, out = run_cli(capsys, "dft", "--input", str(path))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "DomainError"

    def test_magnitude_past_the_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"values": [{"re": "1e-100001", "im": "0"}]}))
        code, out = run_cli(capsys, "dft", "--input", str(path))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "DomainError"

    def test_missing_file_rejected(self, capsys):
        code, out = run_cli(capsys, "dft", "--input", "/nonexistent.json")
        assert code == EXIT_DOMAIN

    def test_deeply_nested_input_rejected(self, tmp_path, capsys):
        # the JSON decoder's RecursionError escaped as a traceback
        path = tmp_path / "deep.json"
        path.write_text('{"values": ' + "[" * 5000 + "]" * 5000 + "}")
        code, out = run_cli(capsys, "dft", "--input", str(path))
        doc = json.loads(out)
        assert code == EXIT_DOMAIN and doc["error"] == "DomainError"
        assert doc["detail"].startswith("bad dft input: ")


class TestErrorsAndFormats:
    def test_invalid_n_exit_code(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "0")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "InvalidN"

    def test_n_above_the_limit_exit_code(self, capsys):
        code, out = run_cli(capsys, "roots", "--n", str(MAX_N + 1))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"] == "InvalidN"

    def test_odd_n_above_the_zeta_limit_names_n(self, capsys):
        # odd-n zeta is read from the 2n-th roots; the detail named 2n
        n = MAX_N // 2 + 1
        code, out = run_cli(capsys, "verify", "--n", str(n))
        doc = json.loads(out)
        assert code == EXIT_DOMAIN and doc["error"] == "InvalidN"
        assert doc["detail"] == f"odd n must be in 1..{MAX_N // 2 - 1}, got {n}"

    def test_roots_of_odd_n_solves_at_n_itself(self, capsys):
        n = MAX_N // 2 + 1
        code, out = run_cli(capsys, "roots-of", "--n", str(n), "--c-re", "2")
        assert code == EXIT_OK
        assert len(json.loads(out)["roots"]) == n

    def test_low_precision_rejected(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "6", "--precision", "16")
        assert code == EXIT_DOMAIN

    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["zeta", "--bogus"])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            parse_args([])
        assert info.value.code == EXIT_USAGE

    def test_parser_is_built_once(self, capsys):
        # rebuilding every subcommand took about a tenth of a cold verify
        cli._build_parser.cache_clear()
        run_cli(capsys, "order", "--n", "12", "--m", "5")
        run_cli(capsys, "zeta", "--n", "6")
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_shared_parser_survives_usage_errors(self, capsys):
        good = ("order", "--n", "12", "--m", "5")
        first = run_cli(capsys, *good)
        assert first[0] == EXIT_OK
        for bad in (["zeta", "--bogus"], ["order", "--n", "12"], []):
            with pytest.raises(SystemExit) as info:
                main(bad)
            assert info.value.code == EXIT_USAGE
            capsys.readouterr()
            assert run_cli(capsys, *good) == first

    def test_zeta_2048_at_32_bits_succeeds(self, capsys):
        # exited 2 with AmbiguousMinimizer on an absolute tie gap of 2**-8
        code, out = run_cli(capsys, "zeta", "--n", "2048", "--precision", "32")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 2048

    def test_verify_2048_at_32_bits_succeeds(self, capsys):
        # exited 2 with NonDescent: -1 lay inside the descent's exit band
        code, out = run_cli(capsys, "verify", "--n", "2048", "--precision", "32")
        assert code == EXIT_OK
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("argv", [("zeta", "--n", "320"),
                                      ("roots", "--n", "307")])
    def test_large_n_solves(self, capsys, argv):
        # large n, past 300; both commands solve at index n, so the CLI
        # filled the cache read here
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert solve_unity(int(argv[2])).residual_bound <= HPReal.pow2(-64)

    def test_roots_at_33_bits_succeeds(self, capsys):
        # n = 32 at 33 bits exited 2 on a rounded unit-circle check
        code, out = run_cli(capsys, "roots", "--n", "32", "--precision", "33")
        assert code == EXIT_OK
        assert len(json.loads(out)["roots"]) == 32

    def test_no_convergence_is_numerical_error(self, capsys, monkeypatch):
        def fail(n, precision):
            raise NoConvergence(f"newton sweeps exhausted for n={n}")

        monkeypatch.setattr(cli, "solve_unity", fail)
        code, out = run_cli(capsys, "roots", "--n", "5")
        assert code == EXIT_NUMERICAL
        assert json.loads(out) == {"schema_version": "1",
                                   "error": "NoConvergence",
                                   "detail": "newton sweeps exhausted for n=5"}

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "order", "--n", "6", "--m", "5",
                            "--format", "text")
        assert code == EXIT_OK
        assert "order = 6" in out
        assert "is_primitive = True" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, _ = run_cli(capsys, "zeta", "--n", "6", "--output", str(target))
        assert code == EXIT_OK
        assert json.loads(target.read_text())["a"] == "0.5"

    def test_unwritable_output_is_domain_error(self, tmp_path, capsys):
        # open() raised FileNotFoundError or IsADirectoryError out of main
        for target in ("/nonexistent/x.json", str(tmp_path)):
            code, out = run_cli(capsys, "roots", "--n", "4", "--output", target)
            doc = json.loads(out)
            assert code == EXIT_DOMAIN and doc["error"] == "DomainError"
            assert target in doc["detail"]

    def test_unwritable_output_as_text(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "6", "--format", "text",
                            "--output", "/nonexistent/x.txt")
        assert code == EXIT_DOMAIN
        assert out.splitlines()[:2] == ["schema_version = 1",
                                        "error = DomainError"]

    def test_alternate_precision_flag(self, capsys):
        code, out = run_cli(capsys, "zeta", "--n", "6", "--precision", "192")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["precision"] == 192
        from unityroot import construct_zeta

        assert HPReal.from_decimal(doc["b"], 192) == construct_zeta(6, 192).b


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "unityroot.cli", "zeta", "--n", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["a"].startswith("0.7071067811865475244")


def test_unwritable_output_end_to_end(tmp_path):
    for target in ("/nonexistent/x.json", str(tmp_path)):
        proc = subprocess.run(
            [sys.executable, "-m", "unityroot.cli", "roots", "--n", "4",
             "--output", target], capture_output=True, text=True)
        assert proc.returncode == EXIT_DOMAIN
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"] == "DomainError" and target in doc["detail"]
