import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edgemorph import (
    PRESETS,
    compute_schedule,
    layout_to_json,
    parse_layout,
    parse_schedule,
    schedule_to_dict,
    validate_schedule,
)
from edgemorph import scheduling
from edgemorph.cli import main
from conftest import DATA_DIR
from gen_layouts import two_segment_cross

TWO_NODE_DOC = json.dumps(
    {
        "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 100, "y": 0}],
        "edges": [{"source": "a", "target": "b"}],
    }
)


@pytest.fixture
def layout_file(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text(layout_to_json(two_segment_cross()), encoding="utf-8")
    return path


@pytest.fixture
def schedule_file(tmp_path, layout_file):
    path = tmp_path / "schedule.json"
    rc = main(["schedule", str(layout_file), "--model", "slowlin", "-o", str(path)])
    assert rc == 0
    return path


class TestValidate:
    def test_valid_layout(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(TWO_NODE_DOC, encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_layout(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "nodes": [{"id": "a", "x": 0, "y": 0}],
                    "edges": [{"source": "a", "target": "a"}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/file.json"]) == 1

    def test_usage_error(self):
        assert main(["validate"]) == 2

    @pytest.mark.parametrize(
        "xs, verdict",
        [
            # A subnormal-length edge on the line of a 10 px one.
            ((0.0, 1e-314, -5.0, 5.0), 0),
            # Two subnormal-length edges overlapping on one line.
            ((0.0, 3e-314, 1e-314, 4e-314), 1),
        ],
    )
    def test_subnormal_edge_lengths(self, tmp_path, capsys, xs, verdict):
        doc = {
            "nodes": [{"id": n, "x": x, "y": 1e-10} for n, x in zip("abcd", xs)],
            "edges": [{"source": "a", "target": "b"}, {"source": "c", "target": "d"}],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == verdict
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2


class TestCrossings:
    def test_lists_crossing(self, layout_file, capsys):
        assert main(["crossings", str(layout_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["a,b c,d 200.000000 0.000000 0.500000 0.500000"]

    def test_delta0_flag(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": "a", "x": 0, "y": 0},
                {"id": "b", "x": 10, "y": 0},
                {"id": "c", "x": 2, "y": -5},
                {"id": "d", "x": 2, "y": 5},
            ],
            "edges": [
                {"source": "a", "target": "b"},
                {"source": "c", "target": "d"},
            ],
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["crossings", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["crossings", str(path), "--delta0", "0.15"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestSchedule:
    def test_writes_file_and_prints_makespan(self, layout_file, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        rc = main(["schedule", str(layout_file), "--model", "slowlin", "-o", str(out)])
        assert rc == 0
        assert "makespan_ms 2250.000" in capsys.readouterr().out
        schedule = parse_schedule(out.read_bytes())
        assert schedule.makespan == 2250.0

    def test_stdout_mode(self, layout_file, capsys):
        rc = main(["schedule", str(layout_file), "--model", "slowlin"])
        assert rc == 0
        captured = capsys.readouterr()
        schedule = parse_schedule(captured.out)
        assert schedule.makespan == 2250.0
        assert "makespan_ms" in captured.err

    def test_horizon_flag_enables_repeats(self, layout_file, capsys):
        rc = main(
            ["schedule", str(layout_file), "--model", "slowlin", "--horizon", "7000"]
        )
        assert rc == 0
        schedule = parse_schedule(capsys.readouterr().out)
        assert max(len(se.starts) for se in schedule.edges) >= 2

    def test_config_file_layered_with_flags(self, layout_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma_a_px_s": 100}), encoding="utf-8")
        rc = main(
            [
                "schedule",
                str(layout_file),
                "--config",
                str(cfg_path),
                "--sigma-a",
                "200",
            ]
        )
        assert rc == 0
        schedule = parse_schedule(capsys.readouterr().out)
        assert schedule.config.sigma_a == 200.0

    @pytest.mark.parametrize(
        "doc",
        ['{"tau_distinct_ms": NaN}', '{"fps": Infinity}', '{"horizon_ms": Infinity}'],
    )
    def test_non_finite_config_is_domain_error(self, layout_file, tmp_path, capsys, doc):
        config = tmp_path / "cfg.json"
        config.write_text(doc, encoding="utf-8")
        rc = main(["schedule", str(layout_file), "--config", str(config)])
        assert rc in (1, 2)
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cap, rc", [(2251, 0), (2250, 1)])
    def test_schedule_ends_within_the_check_grid(
        self, layout_file, tmp_path, capsys, monkeypatch, cap, rc
    ):
        # The slowlin schedule ends at 2250 ms; check samples 1 ms steps
        # below MAX_SAMPLES ms, so a schedule ending there is refused.
        monkeypatch.setattr(scheduling, "MAX_SAMPLES", cap)
        out = tmp_path / "schedule.json"
        args = [str(layout_file), "--model", "slowlin", "-o", str(out)]
        assert main(["schedule", *args]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: ") and "Traceback" not in err
            assert not out.exists()
        else:
            assert main(["check", str(layout_file), str(out)]) == 0

    def test_schedule_past_the_check_grid_is_domain_error(
        self, layout_file, tmp_path, capsys
    ):
        out = tmp_path / "schedule.json"
        args = ["--model", "fastlin", "--horizon", "1200000", "-o", str(out)]
        assert main(["schedule", str(layout_file), *args]) == 1
        assert capsys.readouterr().err.startswith("error: schedule ends at 1199550.0 ms")
        assert not out.exists()

    def test_horizon_too_small_is_domain_error(self, layout_file, capsys):
        rc = main(
            ["schedule", str(layout_file), "--model", "slowlin", "--horizon", "100"]
        )
        assert rc == 1
        assert "horizon" in capsys.readouterr().err


class TestCheck:
    def test_valid_schedule_passes(self, layout_file, schedule_file, capsys):
        assert main(["check", str(layout_file), str(schedule_file)]) == 0
        assert capsys.readouterr().out.startswith("passed ")

    def test_violations_are_listed(self, layout_file, schedule_file, tmp_path, capsys):
        doc = json.loads(schedule_file.read_text(encoding="utf-8"))
        for entry in doc["edges"]:
            entry["starts_ms"] = [0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(layout_file), str(bad)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("crossing-separation ")
        assert "a,b c,d" in lines[0]
        assert lines[-1] == "failed 1 violations (1 crossing-separation), 0 not listed"

    def test_zero_distinctness(self, layout_file, tmp_path, capsys):
        # The second edge starts covering the crossing as the first one stops.
        path = tmp_path / "zero.json"
        args = ["schedule", str(layout_file), "--model", "slowlin", "--tau-distinct", "0"]
        assert main([*args, "-o", str(path)]) == 0
        assert main(["check", str(layout_file), str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["edges"][1]["starts_ms"] = [doc["edges"][1]["starts_ms"][0] - 50.0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["check", str(layout_file), str(path)]) == 1
        assert capsys.readouterr().out.startswith("crossing-separation ")

    @pytest.mark.parametrize("model", sorted(PRESETS))
    def test_crossing_within_noise_of_the_resting_stub(self, model, tmp_path, capsys):
        # c-d crosses a-b 5e-10 px beyond a-b's resting stub: the crossing is
        # avoidable, and a-b covers it only while it animates.
        layout = {
            "nodes": [
                {"id": "a", "x": 0, "y": 0},
                {"id": "b", "x": 1000, "y": 0},
                {"id": "c", "x": 250.0000000005, "y": -500},
                {"id": "d", "x": 250.0000000005, "y": 500},
            ],
            "edges": [{"source": "a", "target": "b"}, {"source": "c", "target": "d"}],
        }
        layout_path, path = tmp_path / "layout.json", tmp_path / "s.json"
        layout_path.write_text(json.dumps(layout), encoding="utf-8")
        assert main(["schedule", str(layout_path), "--model", model, "-o", str(path)]) == 0
        assert main(["check", str(layout_path), str(path)]) == 0
        if model != "slowlin":
            return
        # c-d holds at the crossing 50 ms after a-b stops animating; 45 ms clashes.
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["edges"][1]["starts_ms"] == [2650.0]
        doc["edges"][1]["starts_ms"] = [2645.0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["check", str(layout_path), str(path)]) == 1
        assert capsys.readouterr().out.startswith("crossing-separation ")

    def test_start_past_the_horizon_fails(self, tmp_path, capsys):
        layout_path = DATA_DIR / "sample_dense_40.json"
        path = tmp_path / "h.json"
        args = ["--model", "fastlin", "--horizon", "20000", "-o", str(path)]
        assert main(["schedule", str(layout_path), *args]) == 0
        assert main(["check", str(layout_path), str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        starts = doc["edges"][0]["starts_ms"]
        starts.append(starts[-1] + 50_000.0)
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["check", str(layout_path), str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"horizon {starts[-1]:.3f} ")
        assert lines[0].endswith(" ms > horizon 20000.0 ms")
        assert lines[-1] == "failed 1 violations (1 horizon), 0 not listed"

    def test_unlisted_violations_are_counted(self, tmp_path, capsys):
        layout_path = DATA_DIR / "sample_dense_40.json"
        layout = parse_layout(layout_path.read_bytes())
        doc = schedule_to_dict(compute_schedule(layout, PRESETS["fastlin"]))
        for entry in doc["edges"]:
            entry["starts_ms"] = [0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        schedule = parse_schedule(path.read_bytes())
        report = validate_schedule(layout, schedule.config, schedule)
        total = sum(n for _, n in report.violation_counts)
        assert total > 100
        assert main(["check", str(layout_path), str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 101
        assert lines[-1].endswith(f", {total - 100} not listed")

    def test_another_layouts_schedule_is_refused(self, schedule_file, capsys):
        # The schedule of the two-segment cross names edges a-b and c-d, which
        # the 40-node sample does not have, and none of the sample's edges.
        layout_path = DATA_DIR / "sample_dense_40.json"
        assert main(["check", str(layout_path), str(schedule_file)]) == 1
        lines = capsys.readouterr().out.splitlines()
        layout = parse_layout(layout_path.read_bytes())
        assert lines[:2] == [
            "unknown-edge a,b is not an edge of the layout",
            "unknown-edge c,d is not an edge of the layout",
        ]
        assert sum(line.startswith("missing-edge ") for line in lines) == len(layout.edges)
        assert lines[-1] == (
            f"failed {len(layout.edges) + 2} mismatches with the layout, "
            "schedule not sampled"
        )

    def test_mismatched_edges_and_durations_are_listed(
        self, layout_file, schedule_file, tmp_path, capsys
    ):
        doc = json.loads(schedule_file.read_text(encoding="utf-8"))
        first, second = doc["edges"]
        first["tau_ms"] += 0.5
        doc["edges"] = [first, first]
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(layout_file), str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        name = f"{first['source']},{first['target']}"
        assert lines[0].startswith(f"morph-duration {name} tau {first['tau_ms']} ms")
        assert lines[1:] == [
            f"duplicate-edge {name} is scheduled more than once",
            f"missing-edge {second['source']},{second['target']} has no schedule entry",
            "failed 3 mismatches with the layout, schedule not sampled",
        ]

    @pytest.mark.parametrize("content", ["{not json", None])
    def test_domain_errors_exit_one(
        self, layout_file, schedule_file, tmp_path, capsys, content
    ):
        if content is None:
            # A finite start so late that the sample grid would not fit.
            doc = json.loads(schedule_file.read_text(encoding="utf-8"))
            doc["edges"][0]["starts_ms"].append(1e300)
            content = json.dumps(doc)
        path = tmp_path / "odd.json"
        path.write_text(content, encoding="utf-8")
        assert main(["check", str(layout_file), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(edges=5),
        lambda doc: doc.update(edges=None),
        lambda doc: doc["edges"][0].update(starts_ms="12"),
        lambda doc: doc.update(config=[]),
        lambda doc: doc["edges"][0].update(starts_ms=[True]),
        lambda doc: doc["edges"][0].update(starts_ms=["12"]),
        lambda doc: doc["edges"][0].update(tau_ms="312.5"),
        lambda doc: doc["config"].update(delta0="0.25"),
        lambda doc: doc["config"].update(fps=True),
    ],
    ids=[
        "edges-number",
        "edges-null",
        "starts-string",
        "config-list",
        "start-bool",
        "start-string",
        "tau-string",
        "delta0-string",
        "fps-bool",
    ],
)
def test_wrongly_typed_schedule_is_domain_error(
    layout_file, schedule_file, tmp_path, capsys, edit
):
    doc = json.loads(schedule_file.read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out_dir = tmp_path / "out"
    for argv in (
        ["check", str(layout_file), str(bad)],
        ["render", str(layout_file), "--schedule", str(bad), "--out", str(out_dir)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "JSON" in captured.err
        assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"fps": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf8", "too-many-digits"],
)
def test_unreadable_documents_are_domain_errors(
    layout_file, schedule_file, tmp_path, capsys, content
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    for argv in (
        ["validate", str(bad)],
        ["check", str(layout_file), str(bad)],
        ["schedule", str(layout_file), "--config", str(bad)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not valid" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--tau-half", "1e306"],
        ["--sigma-a", "1e-300"],
        ["--tau-distinct", "1e308"],
        ["--model", "fastlin", "--horizon", "1e308"],
        ["--sigma-a", "0.01"],
        ["--tau-distinct", "1e9"],
    ],
    ids=["tau-half", "sigma-a", "tau-distinct", "horizon", "past-check-grid", "wide-window"],
)
def test_extreme_schedule_flags_exit_one_in_seconds(tmp_path, flags):
    """Times past the microsecond grid, more starts than a schedule may hold,
    or a schedule ending past the check grid are domain errors, reported at
    once: no traceback and no hang."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "schedule.json"
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from edgemorph.cli import main; sys.exit(main())",
            "schedule",
            str(DATA_DIR / "sample_dense_40.json"),
            *flags,
            "-o",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert not out.exists()


@pytest.fixture(scope="module")
def eased_dense_schedule(tmp_path_factory):
    path = tmp_path_factory.mktemp("eased") / "e.json"
    layout = str(DATA_DIR / "sample_dense_40.json")
    assert main(["schedule", layout, "--model", "sloweas", "-o", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("tau_distinct_ms", [1e7, 2e9, 1e300])
def test_huge_distinctness_window_checks_in_seconds(
    tmp_path, eased_dense_schedule, tau_distinct_ms
):
    """A distinctness window wider than the sample grid is checked as one that
    covers the grid: the same verdict, with no traceback and no hang."""
    doc = json.loads(json.dumps(eased_dense_schedule))
    doc["config"]["tau_distinct_ms"] = tau_distinct_ms
    schedule = tmp_path / "e.json"
    schedule.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from edgemorph.cli import main; sys.exit(main())",
            "check",
            str(DATA_DIR / "sample_dense_40.json"),
            str(schedule),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[-1].startswith(
        "failed 522 violations (522 crossing-separation)"
    )


class TestRender:
    def test_frames_directory(self, layout_file, schedule_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        rc = main(
            [
                "render",
                str(layout_file),
                "--schedule",
                str(schedule_file),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert len(files) == 69
        assert files[0] == "frame_000000.svg"

    def test_frame_at_zero_is_resting_drawing(
        self, layout_file, schedule_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "single"
        rc = main(
            [
                "render",
                str(layout_file),
                "--schedule",
                str(schedule_file),
                "--out",
                str(out_dir),
                "--frame-at",
                "0",
            ]
        )
        assert rc == 0
        (path,) = list(out_dir.iterdir())
        text = path.read_text(encoding="utf-8")
        # resting drawing: every edge split into two stubs
        assert text.count("<line") == 4
        assert 'x2="100.000"' in text  # quarter stub of the 400 px edge

    def test_frame_at_equals_exported_frame(
        self, layout_file, schedule_file, tmp_path, capsys
    ):
        """A single frame at a frame time is that frame's file: resting,
        partial and fully drawn edges."""
        frames = tmp_path / "frames"
        args = ["render", str(layout_file), "--schedule", str(schedule_file), "--out"]
        assert main([*args, str(frames)]) == 0
        fps = json.loads(schedule_file.read_text(encoding="utf-8"))["config"]["fps"]
        for k in (0, 12, 31, 40, 68):
            assert main([*args, str(tmp_path / "one"), "--frame-at", str(k * 1000.0 / fps)]) == 0
            single = Path(capsys.readouterr().out.splitlines()[-1])
            assert single.read_bytes() == (frames / f"frame_{k:06d}.svg").read_bytes()

    def test_animated_and_frame_at_are_exclusive(
        self, layout_file, schedule_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        args = ["--schedule", str(schedule_file), "--out", str(out_dir)]
        rc = main(["render", str(layout_file), *args, "--animated", "--frame-at", "0"])
        assert rc == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert "--frame-at: not allowed with argument --animated" in err

    @pytest.mark.parametrize("extra", [[], ["--animated"], ["--frame-at", "0"]])
    def test_another_layouts_schedule_is_refused(
        self, schedule_file, tmp_path, capsys, extra
    ):
        # The two-segment cross's schedule belongs to another layout: nothing
        # is sampled or written, and the mismatches are listed as check does.
        layout_path = DATA_DIR / "sample_dense_40.json"
        out_dir = tmp_path / "out"
        args = ["--schedule", str(schedule_file), "--out", str(out_dir), *extra]
        rc = main(["render", str(layout_path), *args])
        assert rc == 1
        assert not out_dir.exists()
        lines = capsys.readouterr().out.splitlines()
        layout = parse_layout(layout_path.read_bytes())
        assert lines[:2] == [
            "unknown-edge a,b is not an edge of the layout",
            "unknown-edge c,d is not an edge of the layout",
        ]
        assert sum(line.startswith("missing-edge ") for line in lines) == len(layout.edges)
        assert lines[-1] == (
            f"failed {len(layout.edges) + 2} mismatches with the layout, "
            "schedule not sampled"
        )

    def test_schedule_roundtrip_renders_identically(
        self, layout_file, schedule_file, tmp_path
    ):
        from edgemorph import PRESETS, compute_schedule
        from edgemorph.render import frame_texts

        layout = parse_layout(layout_file.read_bytes())
        direct = compute_schedule(layout, PRESETS["slowlin"])
        reread = parse_schedule(schedule_file.read_bytes())
        for t in (0.0, 137.0, 1050.0, 2249.0):
            (a,) = frame_texts(layout, direct.config, direct, [t])
            (b,) = frame_texts(layout, reread.config, reread, [t])
            assert a == b

    def test_frame_ceiling_is_domain_error(self, layout_file, tmp_path, capsys):
        schedule = tmp_path / "fast.json"
        rc = main(
            ["schedule", str(layout_file), "--model", "slowlin", "--fps", "1e9", "-o", str(schedule)]
        )
        assert rc == 0
        for extra in ([], ["--animated"]):
            out_dir = tmp_path / "out"
            rc = main(
                ["render", str(layout_file), "--schedule", str(schedule), "--out", str(out_dir)]
                + extra
            )
            assert rc == 1
            assert not out_dir.exists()
            err = capsys.readouterr().err
            assert "frames" in err and "Traceback" not in err

    def test_fps_with_infinite_frame_period_is_domain_error(
        self, layout_file, schedule_file, tmp_path, capsys
    ):
        # 1000 / 5e-324 overflows to inf: the frame times and the animation's
        # duration would be inf. 1e-9 fps is a finite, if long, frame period.
        doc = json.loads(schedule_file.read_text(encoding="utf-8"))
        for fps, verdict in ((5e-324, 1), (1e-9, 0)):
            doc["config"]["fps"] = fps
            path = tmp_path / f"fps_{fps}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out_dir = tmp_path / f"out_{fps}"
            capsys.readouterr()
            for argv in (
                ["check", str(layout_file), str(path)],
                ["render", str(layout_file), "--schedule", str(path), "--out", str(out_dir)],
                [
                    "render",
                    str(layout_file),
                    "--schedule",
                    str(path),
                    "--out",
                    str(out_dir),
                    "--animated",
                ],
            ):
                assert main(argv) == verdict
                err = capsys.readouterr().err
                assert "Traceback" not in err
                if verdict:
                    assert err.startswith("error: ") and "fps" in err
            if verdict:
                assert not out_dir.exists()
            else:
                text = (out_dir / "animation.svg").read_text(encoding="utf-8")
                assert "inf" not in text and "nan" not in text

    def test_schedule_ending_before_time_zero_renders_frame_zero(
        self, tmp_path, capsys
    ):
        # Every animation ends before 0, so the makespan is negative: check
        # lists the negative starts, and render still draws frame 0 at rest.
        layout_path = str(DATA_DIR / "sample_dense_40.json")
        layout = parse_layout(DATA_DIR.joinpath("sample_dense_40.json").read_bytes())
        doc = schedule_to_dict(compute_schedule(layout, PRESETS["fastlin"]))
        for entry in doc["edges"]:
            entry["starts_ms"] = [ts - 1e6 for ts in entry["starts_ms"]]
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", layout_path, str(path)]) == 1
        assert "start-separation" in capsys.readouterr().out
        render = ["render", layout_path, "--schedule", str(path), "--out"]
        assert main([*render, str(tmp_path / "frames")]) == 0
        assert [p.name for p in (tmp_path / "frames").iterdir()] == ["frame_000000.svg"]
        assert main([*render, str(tmp_path / "anim"), "--animated"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        text = (tmp_path / "anim" / "animation.svg").read_text(encoding="utf-8")
        values = re.findall(r'values="([^"]*)"', text)
        assert len(values) == 2 * 2 * len(layout.edges)
        assert all(";" not in v for v in values)
        assert set(re.findall(r'keyTimes="([^"]*)"', text)) == {"0.000000"}

    @pytest.mark.parametrize(
        "field, value",
        [("starts_ms", float("nan")), ("starts_ms", float("inf")), ("tau_ms", 1e308)],
    )
    def test_non_finite_schedule_times_are_domain_errors(
        self, layout_file, schedule_file, tmp_path, capsys, field, value
    ):
        doc = json.loads(schedule_file.read_text(encoding="utf-8"))
        if field == "starts_ms":
            doc["edges"][0]["starts_ms"].append(value)
        else:
            doc["edges"][0]["tau_ms"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        for extra in ([], ["--animated"]):
            out_dir = tmp_path / "out"
            rc = main(
                ["render", str(layout_file), "--schedule", str(bad), "--out", str(out_dir)]
                + extra
            )
            assert rc == 1
            assert not out_dir.exists()
            err = capsys.readouterr().err
            assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_frame_at_is_usage_error(
        self, layout_file, schedule_file, tmp_path, capsys, value
    ):
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(
            [
                "render",
                str(layout_file),
                "--schedule",
                str(schedule_file),
                "--out",
                str(out_dir),
                f"--frame-at={value}",
            ]
        )
        assert rc == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert "--frame-at must be a finite time" in err and "Traceback" not in err

    def test_unsorted_starts_are_domain_errors(self, layout_file, tmp_path, capsys):
        repeat = tmp_path / "repeat.json"
        rc = main(
            ["schedule", str(layout_file), "--model", "slowlin", "--horizon", "9000", "-o", str(repeat)]
        )
        assert rc == 0
        doc = json.loads(repeat.read_text(encoding="utf-8"))
        assert len(doc["edges"][0]["starts_ms"]) >= 2
        doc["edges"][0]["starts_ms"].reverse()
        bad = tmp_path / "reversed.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        for extra in ([], ["--animated"], ["--frame-at", "100"]):
            out_dir = tmp_path / "out"
            rc = main(
                ["render", str(layout_file), "--schedule", str(bad), "--out", str(out_dir)]
                + extra
            )
            assert rc == 1
            assert not out_dir.exists()
            err = capsys.readouterr().err
            assert "not sorted" in err and "Traceback" not in err

    def test_animated_output(self, layout_file, schedule_file, tmp_path):
        out_dir = tmp_path / "anim"
        rc = main(
            [
                "render",
                str(layout_file),
                "--schedule",
                str(schedule_file),
                "--out",
                str(out_dir),
                "--animated",
            ]
        )
        assert rc == 0
        assert (out_dir / "animation.svg").exists()


class TestTrial:
    def test_writes_trial_and_colored_layout(self, layout_file, tmp_path, capsys):
        out = tmp_path / "trial.json"
        rc = main(
            ["trial", str(layout_file), "--task", "T1", "--seed", "5", "-o", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["task"] == "T1"
        assert len(doc["blue"]) == 2
        assert isinstance(doc["ground_truth"], bool)
        layout_copy = json.loads((tmp_path / "trial_layout.json").read_text())
        blues = {n["id"] for n in layout_copy["nodes"] if n["color"] == "blue"}
        assert blues == set(doc["blue"])

    def test_deterministic_under_seed(self, layout_file, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        main(["trial", str(layout_file), "--task", "T4", "--seed", "9", "-o", str(first)])
        main(["trial", str(layout_file), "--task", "T4", "--seed", "9", "-o", str(second)])
        assert first.read_text() == second.read_text()

    def test_bad_task_is_usage_error(self, layout_file, tmp_path):
        rc = main(
            ["trial", str(layout_file), "--task", "T7", "--seed", "1", "-o", "x.json"]
        )
        assert rc == 2


class TestStats:
    def test_model_comparison(self, layout_file, capsys):
        rc = main(
            [
                "stats",
                "--layout",
                str(layout_file),
                "--model-a",
                "slowlin",
                "--model-b",
                "fastlin",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan_a_ms 2250.000" in out
        assert "makespan_b_ms 1250.000" in out
        assert "slowdown 0.800000" in out

    def test_missing_config_is_usage_error(self, layout_file, capsys):
        rc = main(["stats", "--layout", str(layout_file), "--model-a", "slowlin"])
        assert rc == 2

    def test_synthetic_forty_node_slowdown_range(self, tmp_path, capsys):
        from gen_layouts import paper_scale_layout

        path = tmp_path / "forty.json"
        path.write_text(layout_to_json(paper_scale_layout(9100)), encoding="utf-8")
        rc = main(
            [
                "stats",
                "--layout",
                str(path),
                "--model-a",
                "slowlin",
                "--model-b",
                "fastlin",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        slowdown = float(out.strip().splitlines()[-1].split()[1])
        assert 0.5 <= slowdown <= 1.0


def test_every_command_runs_without_scipy(tmp_path):
    """The program needs numpy only: scipy is blocked from import here."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    layout = str(DATA_DIR / "sample_dense_40.json")
    eased, repeated = tmp_path / "eased.json", tmp_path / "repeated.json"
    commands = [
        ["validate", layout],
        ["crossings", layout],
        ["schedule", layout, "--model", "sloweas", "--fps", "5", "-o", str(eased)],
        ["schedule", layout, "--model", "fastlin", "--horizon", "60000", "--fps", "2",
         "-o", str(repeated)],
        ["check", layout, str(eased)],
        ["check", layout, str(repeated)],
        ["render", layout, "--schedule", str(eased), "--out", str(tmp_path / "frames")],
        ["render", layout, "--schedule", str(repeated), "--out", str(tmp_path / "anim"),
         "--animated"],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from edgemorph.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'failed: {argv}')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "frames" / "frame_000000.svg").is_file()
    assert (tmp_path / "anim" / "animation.svg").is_file()
