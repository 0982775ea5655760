import json

from quatalg import QMatrix, drazin_inverse
from quatalg.cli import main
from quatalg.quat import I, K

from helpers import sample_a, sample_b, sample_d, sample_solution


def write_doc(tmp_path, name="doc.json", **matrices):
    doc = {key: m.to_json() for key, m in matrices.items()}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_axb_golden(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a(), B=sample_b(), D=sample_d())
    code, out, _ = run_cli(capsys, ["solve-axb", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert QMatrix.from_json(report["X"]) == sample_solution()
    meta = report["meta"]
    assert meta["index_a"] == 1 and meta["rank_a"] == 2
    assert meta["index_b"] == 1 and meta["rank_b"] == 1
    assert meta["denominator_a"] == 4 and meta["denominator_b"] == 4
    assert meta["denominator"] == 16
    assert meta["self_check"] is True


def test_det_command(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix([[1, K], [-K, 2]]))
    code, out, _ = run_cli(capsys, ["det", "--input", path])
    assert code == 0
    assert json.loads(out)["det"] == 1


def test_rank_of_zero_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix.zeros(3, 3))
    code, out, _ = run_cli(capsys, ["rank", "--input", path])
    assert code == 0
    assert json.loads(out)["rank"] == 0


def test_index_command(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a())
    code, out, _ = run_cli(capsys, ["index", "--input", path])
    assert code == 0
    assert json.loads(out)["index"] == 1


def test_drazin_command_reports_audit_data(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a())
    code, out, _ = run_cli(capsys, ["drazin", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert QMatrix.from_json(report["X"]) == drazin_inverse(sample_a()).inverse
    assert report["meta"]["index"] == 1
    assert report["meta"]["rank"] == 2
    assert report["meta"]["denominator"] == 4


def test_drazin_lambda_sweep(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a())
    code, out, _ = run_cli(capsys, ["drazin", "--input", path, "--lambda-sweep"])
    assert code == 0
    sweep = json.loads(out)["meta"]["lambda_sweep"]
    residuals = [point["residual"] for point in sweep]
    assert len(residuals) == 3
    assert residuals[0] > residuals[1] > residuals[2]


def test_solve_ax_reports_residual(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a(), D=sample_d())
    code, out, _ = run_cli(capsys, ["solve-ax", "--input", path])
    assert code == 0
    report = json.loads(out)
    # the equation is inconsistent, so the Drazin solution leaves a defect
    assert report["meta"]["residual_zero"] is False
    a = sample_a()
    x = QMatrix.from_json(report["X"])
    assert QMatrix.from_json(report["residual"]) == a * x - sample_d()


def test_verify_command(tmp_path, capsys):
    x = drazin_inverse(sample_a()).inverse
    path = write_doc(tmp_path, A=sample_a(), X=x)
    code, out, _ = run_cli(capsys, ["verify", "--input", path])
    assert code == 0
    assert json.loads(out)["verified"] is True

    bad = x.replace_column(1, tuple(v + 1 for v in x.column(1)))
    path = write_doc(tmp_path, name="bad.json", A=sample_a(), X=bad)
    code, out, _ = run_cli(capsys, ["verify", "--input", path])
    assert code == 0
    assert json.loads(out)["verified"] is False


def test_fast_mode(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a(), B=sample_b(), D=sample_d())
    code, out, _ = run_cli(capsys, ["solve-axb", "--input", path, "--fast"])
    assert code == 0
    report = json.loads(out)
    assert report["meta"]["self_check"] is False
    assert QMatrix.from_json(report["X"]) == sample_solution()


def test_pretty_format(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix([[1, K], [-K, 2]]))
    code, out, _ = run_cli(capsys, ["det", "--input", path, "--format", "pretty"])
    assert code == 0
    assert "det = 1" in out

    path = write_doc(tmp_path, name="axb.json", A=sample_a(), B=sample_b(), D=sample_d())
    code, out, _ = run_cli(capsys, ["solve-axb", "--input", path, "--format", "pretty"])
    assert code == 0
    assert "X =" in out
    assert "3/8 - 1/8 i + 1/4 j" in out


def test_output_file(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a())
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["rank", "--input", path, "--output", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["rank"] == 2


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a(), B=sample_b(), D=sample_d())
    _, first, _ = run_cli(capsys, ["solve-axb", "--input", path])
    _, second, _ = run_cli(capsys, ["solve-axb", "--input", path])
    assert first == second


def test_matrix_json_round_trip_through_the_cli_schema():
    for m in (sample_a(), sample_b(), sample_d(), sample_solution()):
        assert QMatrix.from_json(json.loads(json.dumps(m.to_json()))) == m


def test_exit_code_for_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["det", "--input", str(path)])
    assert code == 2
    assert "error" in err


def test_exit_code_for_bad_quaternion(tmp_path, capsys):
    doc = {"A": {"rows": 1, "cols": 1, "data": [[[0.5, 0, 0, 0]]]}}
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, ["det", "--input", str(path)])
    assert code == 2


def test_exit_code_for_missing_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, A=sample_a())
    code, _, _ = run_cli(capsys, ["solve-axb", "--input", path])
    assert code == 3


def test_exit_code_for_non_hermitian_input(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix([[0, I], [I, 0]]))
    code, _, _ = run_cli(capsys, ["det", "--input", path])
    assert code == 3


def test_exit_code_for_size_cap(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix.identity(9))
    code, _, _ = run_cli(capsys, ["det", "--input", path])
    assert code == 4


def test_exit_code_for_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(capsys, ["det", "--input", str(tmp_path / "absent.json")])
    assert code == 2


def write_text(tmp_path, text, name="doc.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_entry_doc(component: str) -> str:
    return '{"A": {"rows": 1, "cols": 1, "data": [[[%s, 0, 0, 0]]]}}' % component


def test_exit_code_for_oversized_numeral_string(tmp_path, capsys):
    path = write_text(tmp_path, one_entry_doc('"%s"' % ("9" * 5000)))
    code, _, err = run_cli(capsys, ["det", "--input", path])
    assert code == 2
    assert "Traceback" not in err


def test_exit_code_for_oversized_denominator(tmp_path, capsys):
    path = write_text(tmp_path, one_entry_doc('"1/%s"' % ("9" * 5000)))
    code, _, err = run_cli(capsys, ["det", "--input", path])
    assert code == 2
    assert "Traceback" not in err


def test_exit_code_for_oversized_json_integer(tmp_path, capsys):
    path = write_text(tmp_path, one_entry_doc("9" * 5000))
    code, _, err = run_cli(capsys, ["det", "--input", path])
    assert code == 2
    assert "Traceback" not in err


def test_exit_code_for_a_result_too_long_to_write(tmp_path, capsys):
    big = 10 ** 2200
    path = write_doc(tmp_path, A=QMatrix([[big, 0], [0, big]]))
    for fmt in ("json", "pretty"):
        code, out, err = run_cli(capsys, ["det", "--input", path, "--format", fmt])
        assert code == 4
        assert out == "" and "Traceback" not in err


def test_exit_code_for_a_lambda_sweep_past_double_precision(tmp_path, capsys):
    path = write_doc(tmp_path, A=QMatrix([[10 ** 400]]))
    code, out, err = run_cli(capsys, ["drazin", "--input", path, "--lambda-sweep"])
    assert code == 5
    assert out == "" and "Traceback" not in err
