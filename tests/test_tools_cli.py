"""CLI tool tests (driven through main() with captured stdout)."""

import io
import json
import sys

import pytest

from repro.tools.cli import main

DEMO = """
int main() {
    int acc = 0;
    for (int i = 0; i < 5; i++) acc += i * i;
    __out(acc);
    return 0;
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompileAndDisasm:
    def test_compile_straight(self, demo_file, capsys):
        code, out, _ = run_cli(["compile", demo_file, "--target", "straight"], capsys)
        assert code == 0
        assert "main:" in out
        assert "SPADD" in out or "RMOV" in out or "ADDI" in out

    def test_compile_riscv(self, demo_file, capsys):
        code, out, _ = run_cli(["compile", demo_file, "--target", "riscv"], capsys)
        assert code == 0
        assert "addi" in out

    def test_compile_raw_has_more_rmovs(self, demo_file, capsys):
        _, re_out, _ = run_cli(["compile", demo_file, "--target", "straight"], capsys)
        _, raw_out, _ = run_cli(
            ["compile", demo_file, "--target", "straight-raw"], capsys
        )
        assert raw_out.count("RMOV") >= re_out.count("RMOV")

    def test_disasm_shows_addresses(self, demo_file, capsys):
        code, out, _ = run_cli(["disasm", demo_file], capsys)
        assert code == 0
        assert "_start:" in out
        assert "0x001000" in out or "0x1000" in out

    def test_max_distance_flag(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["compile", demo_file, "--max-distance", "15"], capsys
        )
        assert code == 0


class TestRun:
    def test_run_outputs_words(self, demo_file, capsys):
        code, out, err = run_cli(["run", demo_file], capsys)
        assert code == 0
        assert out.strip() == "30"  # 0+1+4+9+16
        assert "instructions retired" in err

    def test_run_all_targets_agree(self, demo_file, capsys):
        outputs = set()
        for target in ("riscv", "straight", "straight-raw"):
            _, out, _ = run_cli(["run", demo_file, "--target", target], capsys)
            outputs.add(out)
        assert len(outputs) == 1

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEMO))
        code, out, _ = run_cli(["run", "-", "--target", "riscv"], capsys)
        assert code == 0
        assert out.strip() == "30"

    def test_run_compiled_flags_agree(self, demo_file, capsys):
        outputs = set()
        for flags in ([], ["--no-compiled"]):
            code, out, _ = run_cli(["run", demo_file, *flags], capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_run_sampled_emits_stats_json(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["run", demo_file, "--sampled", "--core", "SS-2way",
             "--target", "riscv"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"] == [30]
        assert payload["core"] == "SS-2way"
        # The demo is far too short to sample: exact fallback, flagged.
        assert payload["sampling"]["mode"] == "full-fallback"
        assert payload["sampling"]["params"]["seed"] == 0

    def test_run_sampled_unknown_core_fails(self, demo_file, capsys):
        code, _, err = run_cli(
            ["run", demo_file, "--sampled", "--core", "SS-9way"], capsys
        )
        assert code == 1
        assert "unknown core" in err

    def test_run_sampled_target_core_mismatch_fails(self, demo_file, capsys):
        # Default --target is straight; an SS core cannot simulate it.
        code, _, err = run_cli(
            ["run", demo_file, "--sampled", "--core", "SS-2way"], capsys
        )
        assert code == 1
        assert "simulates" in err


class TestSimulate:
    def test_simulate_emits_json(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["simulate", demo_file, "--core", "STRAIGHT-2way"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"] == [30]
        assert payload["cycles"] > 0
        assert payload["core"] == "STRAIGHT-2way"

    def test_simulate_ss_core(self, demo_file, capsys):
        code, out, _ = run_cli(["simulate", demo_file, "--core", "SS-2way"], capsys)
        payload = json.loads(out)
        assert payload["target"] == "riscv"
        assert payload["rename_writes"] > 0

    def test_unknown_core_fails(self, demo_file, capsys):
        code, _, err = run_cli(["simulate", demo_file, "--core", "SS-9way"], capsys)
        assert code == 1
        assert "unknown core" in err


class TestExperiments:
    def test_single_cheap_experiment(self, capsys):
        code, out, _ = run_cli(["experiments", "table1"], capsys)
        assert code == 0
        assert "Table I" in out

    def test_unknown_experiment(self, capsys):
        code, _, err = run_cli(["experiments", "fig99"], capsys)
        assert code == 1
        assert "unknown experiment" in err


class TestBench:
    def test_smoke_reports_throughput_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        sweep_path = tmp_path / "BENCH_sweep.json"
        code, out, _ = run_cli(
            ["bench", "--smoke", "--repeats", "1",
             "--workload", "branchy_div", "--json", str(out_path),
             "--sweep-json", str(sweep_path), "--sweep-jobs", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == json.loads(out_path.read_text())
        (report,) = payload["workloads"]
        assert report["workload"] == "branchy_div"
        assert report["instrs_per_sec"]["event_driven"] > 0
        assert report["skipped_cycles"] > 0
        assert (report["executed_cycles"] + report["skipped_cycles"]
                == report["cycles"])
        # The sweep/cache scorecard artifact (BENCH_sweep.json).
        scorecard = json.loads(sweep_path.read_text())
        assert scorecard["wall_s"]["cold"] > 0
        assert (scorecard["cycles_simulated"]["warm"]
                == scorecard["cycles_simulated"]["cold"] > 0)
        assert scorecard["warm_hit_rate"] == 1.0
        assert scorecard["cache"]["warm"]["results"]["hits"] > 0
        assert scorecard["predecode_speedup"] > 0
        assert payload["predecode"]["speedup"] == scorecard["predecode_speedup"]

    def test_bench_without_smoke_fails(self, capsys):
        code, _, err = run_cli(["bench"], capsys)
        assert code == 1
        assert "--smoke" in err

    def test_bench_unknown_workload_fails(self, capsys):
        code, _, err = run_cli(["bench", "--smoke", "--workload", "nope"],
                               capsys)
        assert code == 1
        assert "unknown bench workload" in err


class TestSweep:
    @pytest.fixture
    def scoped_cache(self):
        from repro.harness import cache as cache_mod
        from repro.harness.sweep import clear_memo

        previous = cache_mod.swap_state()
        clear_memo()
        yield
        clear_memo()
        cache_mod.swap_state(previous)

    def test_unknown_grid_name_fails(self, scoped_cache, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "fig99", "--cache-dir", str(tmp_path / "c"), "--quiet"],
            capsys,
        )
        assert code == 1
        assert "fig99" in err

    def test_cold_then_warm_run_meets_hit_rate(self, scoped_cache, tmp_path,
                                               capsys):
        cache_dir = str(tmp_path / "cache")
        report_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            ["sweep", "fig16", "--jobs", "1", "--cache-dir", cache_dir,
             "--json", str(report_path), "--quiet"],
            capsys,
        )
        assert code == 0
        cold = json.loads(report_path.read_text())
        assert cold["manifest"]["failed"] == []
        assert cold["result_hit_rate"] == 0.0

        from repro.harness.sweep import clear_memo

        clear_memo()
        code, _, _ = run_cli(
            ["sweep", "fig16", "--jobs", "1", "--cache-dir", cache_dir,
             "--json", str(report_path), "--quiet", "--min-hit-rate", "0.9",
             "--full-results"],
            capsys,
        )
        assert code == 0
        warm = json.loads(report_path.read_text())
        assert warm["result_hit_rate"] == 1.0
        assert set(warm["results"]) == set(cold["manifest"]["requested"])

    def test_min_hit_rate_gate_fails_cold_runs(self, scoped_cache, tmp_path,
                                               capsys):
        code, _, err = run_cli(
            ["sweep", "fig16", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cold"), "--quiet",
             "--min-hit-rate", "0.9", "--json", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert "hit rate" in err


class TestVerify:
    def test_verify_clean_program(self, demo_file, capsys):
        code, out, _ = run_cli(["verify", demo_file], capsys)
        assert code == 0
        assert "0 error(s)" in out
        assert out.strip().endswith("OK")

    def test_verify_both_targets_with_lint(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["verify", demo_file, "--target", "both", "--lint"], capsys
        )
        assert code == 0
        assert "straight/md=1023" in out
        assert "straight-raw/md=1023" in out

    def test_verify_json_payload(self, demo_file, capsys):
        code, out, _ = run_cli(["verify", demo_file, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        (run,) = payload["runs"]
        assert run["counts"]["error"] == 0
        assert run["stats"]["functions"] >= 2

    def test_verify_mutants_default_campaign(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--mutants", "8", "--seed", "5"], capsys
        )
        assert code == 0
        assert "mutation campaign" in out
        assert "mutants=8" in out

    def test_verify_without_input_fails(self, capsys):
        code, _, err = run_cli(["verify"], capsys)
        assert code == 2
        assert "--all-shipped" in err

    def test_verify_tight_distance_bound(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["verify", demo_file, "--max-distance", "15"], capsys
        )
        assert code == 0
        assert "md=15" in out

    def test_verify_riscv_isa(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["verify", demo_file, "--isa", "riscv", "--lint"], capsys
        )
        assert code == 0
        assert out.strip().endswith("OK")

    def test_verify_json_is_byte_stable(self, demo_file, capsys):
        runs = [
            run_cli(["verify", demo_file, "--isa", isa, "--lint", "--json"],
                    capsys)
            for isa in ("straight", "riscv", "bb")
            for _ in range(2)
        ]
        assert all(code == 0 for code, _, _ in runs)
        outs = [out for _, out, _ in runs]
        # Same invocation twice -> byte-identical JSON (satellite: stable
        # diagnostic ordering).
        assert outs[0] == outs[1]
        assert outs[2] == outs[3]
        assert outs[4] == outs[5]

    def test_verify_gpr_mutation_campaign(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["verify", demo_file, "--isa", "riscv", "--mutants", "6",
             "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "mutation campaign" in out
        assert "[riscv]" in out


class TestAnalyze:
    def test_analyze_text(self, demo_file, capsys):
        code, out, _ = run_cli(["analyze", demo_file], capsys)
        assert code == 0
        assert "static ILP [straight]" in out
        assert "ipc_bound(2-way)" in out
        assert out.strip().endswith("OK")

    def test_analyze_json_riscv(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["analyze", demo_file, "--isa", "riscv", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["isa"] == "riscv"
        assert payload["verify"]["counts"]["error"] == 0
        assert float(payload["ilp"]["ipc_bound"]["4"]) > 0

    def test_analyze_workload(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--workload", "dhrystone", "--isa", "bb", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["ilp"]["loops"]

    def test_analyze_without_input_fails(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 2
        assert "--workload" in err or "file" in err


def _fake_bench_report(overhead_pct):
    passes = [
        {"pass": name, "wall_s": 0.1, "cycles_simulated": 100,
         "cache": {"results": {"hits": 1, "misses": 0, "stores": 0,
                               "evictions": 0}},
         "results_from_cache": 1, "result_hit_rate": 1.0}
        for name in ("cold", "warm")
    ]
    return {
        "workloads": [{"workload": "branchy_div", "cycles": 100,
                       "skipped_cycles": 40, "executed_cycles": 60}],
        "sweep": {"passes": passes, "jobs": 1, "grid": ["fig11"],
                  "warm_speedup": 2.0},
        "predecode": {"speedup": 1.5},
        "best_speedup": 3.0,
        "observability": {"overhead_disabled_pct": overhead_pct},
    }


class TestTraceAndProfile:
    def test_functional_trace_unchanged(self, demo_file, capsys):
        code, out, _ = run_cli(["trace", demo_file, "--limit", "4"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert "dest=" in out

    def test_trace_requires_some_input(self, capsys):
        with pytest.raises(SystemExit, match="--workload"):
            run_cli(["trace"], capsys)

    def test_pipeline_trace_writes_parseable_kanata(self, demo_file,
                                                    tmp_path, capsys):
        from repro.obs import parse_kanata

        log = tmp_path / "demo.kanata"
        code, out, _ = run_cli(
            ["trace", demo_file, "--core", "STRAIGHT-2way",
             "--kanata", str(log), "--attribution"],
            capsys,
        )
        assert code == 0
        assert "conserved" in out
        records = parse_kanata(log.read_text())
        assert records
        assert all(rec["retire"] is not None for rec in records.values())

    def test_pipeline_trace_json_from_workload(self, tmp_path, capsys):
        log = tmp_path / "w.kanata"
        code, out, _ = run_cli(
            ["trace", "--workload", "dhrystone", "--iterations", "2",
             "--core", "SS-2way", "--kanata", str(log),
             "--attribution", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["binary"] == "SS"
        assert payload["instructions_logged"] > 0
        assert payload["attribution"]["conserved"] is True
        assert log.exists()

    def test_trace_unknown_core_fails(self, demo_file, capsys):
        with pytest.raises(SystemExit, match="unknown core"):
            run_cli(["trace", demo_file, "--core", "SS-9way"], capsys)

    def test_profile_text(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["profile", demo_file, "--core", "STRAIGHT-2way", "--top", "3"],
            capsys,
        )
        assert code == 0
        assert "hot regions:" in out
        assert "slots_retiring" in out

    def test_profile_json_ss_core(self, demo_file, capsys):
        code, out, _ = run_cli(
            ["profile", demo_file, "--core", "SS-2way", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["binary"] == "SS"
        assert payload["attribution"]["conserved"] is True
        assert payload["profile"]["total_commits"] > 0


class TestBenchObsGate:
    def test_gate_passes_under_budget(self, tmp_path, capsys, monkeypatch):
        import repro.harness.bench as bench_mod

        monkeypatch.setattr(bench_mod, "bench_smoke",
                            lambda **kwargs: _fake_bench_report(1.25))
        code, _, err = run_cli(
            ["bench", "--smoke", "--sweep-json",
             str(tmp_path / "s.json"), "--max-obs-overhead", "5.0"],
            capsys,
        )
        assert code == 0
        assert "within" in err

    def test_gate_fails_over_budget(self, tmp_path, capsys, monkeypatch):
        import repro.harness.bench as bench_mod

        monkeypatch.setattr(bench_mod, "bench_smoke",
                            lambda **kwargs: _fake_bench_report(9.75))
        code, _, err = run_cli(
            ["bench", "--smoke", "--sweep-json",
             str(tmp_path / "s.json"), "--max-obs-overhead", "5.0"],
            capsys,
        )
        assert code == 1
        assert "exceeds" in err
