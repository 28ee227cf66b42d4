"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestEmbed:
    def test_embed_happy_path(self, capsys):
        rc = main(["embed", "--family", "random", "--height", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dilation" in out and "load=16" in out

    def test_embed_show_placement(self, capsys):
        rc = main(["embed", "--family", "path", "--height", "1", "--show-placement"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-> (0, 0)" in out and "eps" in out

    def test_embed_validate_flag(self, capsys):
        assert main(["embed", "--height", "2", "--validate"]) == 0


class TestVerify:
    def test_verify_all_pass(self, capsys):
        rc = main(["verify", "--height", "2", "--family", "remy", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MISS" not in out
        assert "Theorem 1" in out and "Theorem 4" in out


class TestSimulate:
    def test_simulate_single_program(self, capsys):
        rc = main(["simulate", "--height", "2", "--program", "reduction"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reduction" in out and "slowdown" in out

    def test_simulate_link_capacity(self, capsys):
        rc = main(
            ["simulate", "--height", "1", "--program", "neighbor_exchange", "--link-capacity", "4"]
        )
        assert rc == 0

    def test_simulate_engine_flag(self, capsys):
        outs = []
        for engine in ("classic", "vector", "auto"):
            rc = main(
                ["simulate", "--height", "2", "--program", "reduction",
                 "--engine", engine]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert f"engine {engine}" in out
            # both engines must report the same cycle table
            outs.append(out.split("\n", 1)[1])
        assert outs[0] == outs[1] == outs[2]

    def test_simulate_engine_vector_rejects_trace(self, tmp_path):
        # forcing the kernel under a recorder is a contradiction: the
        # dispatch refuses instead of silently dropping the trace
        with pytest.raises(ValueError, match="engine='vector'"):
            main(
                ["simulate", "--height", "1", "--program", "reduction",
                 "--engine", "vector", "--trace", str(tmp_path / "t.jsonl")]
            )

    def test_simulate_engine_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--height", "1", "--engine", "turbo"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["embed", "--family", "nope"])


class TestRuntimeExitCodes:
    """PR-7 satellite: `runtime` exits exactly like `simulate` — 0 only
    when every job finished with every message delivered, 1 for degraded
    or incomplete runs and for RepairError."""

    def config(self, tmp_path, jobs, **extra):
        import json

        doc = {"version": 1, "name": "cli-jobs",
               "host": {"name": "xtree", "args": [4]}, "jobs": jobs}
        doc.update(extra)
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def faults(self, tmp_path, events):
        import json

        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"events": events}))
        return str(path)

    def test_complete_run_exits_0(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ])
        assert main(["runtime", cfg]) == 0
        assert "done" in capsys.readouterr().out

    def test_budget_exhausted_exits_1_and_names_job(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "starved", "program": "prefix_sum", "tree_n": 15,
             "capacity": 4, "height": 4, "cycle_budget": 3},
        ])
        assert main(["runtime", cfg]) == 1
        err = capsys.readouterr().err
        assert "incomplete job 'starved'" in err
        assert "budget_exhausted" in err

    def test_repair_error_exits_1(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "prefix_sum", "tree_n": 12,
             "capacity": 4, "height": 4},
        ], max_load=5)
        flt = self.faults(tmp_path, [
            {"cycle": 1 + 3 * i, "action": "fail_node", "u": [4, i]}
            for i in range(8)
        ])
        assert main(["runtime", cfg, "--faults", flt]) == 1
        assert "online repair failed" in capsys.readouterr().err

    def test_degraded_faulted_run_exits_1_with_report(self, tmp_path, capsys):
        # dead links (no repair for link faults) terminally drop messages
        import json

        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({
            "version": 1,
            "name": "cli-degraded",
            "host": {"name": "xtree", "args": [3]},
            "jobs": [{"name": "a", "program": "neighbor_exchange",
                      "tree_n": 15, "capacity": 4, "height": 3}],
        }))
        cfg = str(cfg)
        flt = self.faults(tmp_path, [
            {"cycle": 2, "action": "fail_link", "u": [2, 0], "v": [3, 0]},
            {"cycle": 2, "action": "fail_link", "u": [3, 0], "v": [3, 1]},
        ])
        assert main(["runtime", cfg, "--faults", flt]) == 1
        err = capsys.readouterr().err
        assert "incomplete job 'a'" in err and "failed messages" in err

    def test_checkpoint_resume_keeps_exit_code(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ])
        ckpt = tmp_path / "c.json"
        assert main(["runtime", cfg, "--checkpoint", str(ckpt)]) == 0
        # resume from the finished checkpoint: still complete, still 0
        assert main(["runtime", cfg, "--checkpoint", str(ckpt)]) == 0
        assert "resumed from" in capsys.readouterr().out

    def test_misspelt_config_key_exits_1_and_names_it(self, tmp_path, capsys):
        # a typo'd knob must not silently run with the defaults
        cfg = self.config(tmp_path, [
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 4, "height": 4},
        ], polcy="fair", max_lod=4)
        assert main(["runtime", cfg]) == 1
        err = capsys.readouterr().err
        assert "polcy" in err and "max_lod" in err

    def test_flags_override_the_document_only_when_given(self, tmp_path, capsys):
        jobs = [{"name": "a", "program": "reduction", "tree_n": 15,
                 "capacity": 4, "height": 4}]
        # the document's fault schedule runs unless --faults replaces it
        dead_links = {"events": [
            {"cycle": 1, "action": "fail_link", "u": [3, 0], "v": [4, 0]},
            {"cycle": 1, "action": "fail_link", "u": [3, 0], "v": [4, 1]},
            {"cycle": 1, "action": "fail_link", "u": [3, 0], "v": [3, 1]},
            {"cycle": 1, "action": "fail_link", "u": [2, 0], "v": [3, 0]},
        ]}
        cfg = self.config(tmp_path, jobs, faults=dead_links)
        none = self.faults(tmp_path, [])
        assert main(["runtime", cfg, "--faults", none]) == 0
        assert main(["runtime", cfg]) == 1
        capsys.readouterr()
