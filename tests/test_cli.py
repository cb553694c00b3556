"""End-to-end command-line workflow: generate, extract, split, train, eval,
paste, and the dump commands, all run in-process through main()."""

import json
import os

import pytest

from smartpaste.cli import build_parser, main
from smartpaste.minilang.lexer import tokenize
from smartpaste.minilang.parser import parse

from test_infer import SNIPPET, TARGET


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One corpus generated, extracted, and trained once for the module."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    data = str(root / "data.jsonl")
    model = str(root / "model.json")
    assert main(["generate", "--seed", "3", "--projects", "2",
                 "--files-per-project", "2", "--profile", "tiny",
                 "--out", corpus]) == 0
    assert main(["extract", "--corpus", corpus, "--out", data,
                 "--max-tokens", "40"]) == 0
    assert main(["train", "--seed", "1", "--data", data, "--variant", "loc",
                 "--hidden", "4", "--epochs", "1", "--checkpoint",
                 model]) == 0
    return {"root": root, "corpus": corpus, "data": data, "model": model}


class TestGenerate:
    def test_writes_project_directories(self, workspace):
        projects = sorted(os.listdir(workspace["corpus"]))
        assert projects == ["proj00", "proj01"]
        for proj in projects:
            files = sorted(os.listdir(os.path.join(workspace["corpus"], proj)))
            assert files == ["file000.ml0", "file001.ml0"]

    def test_deterministic_bytes(self, workspace, tmp_path):
        again = str(tmp_path / "again")
        assert main(["generate", "--seed", "3", "--projects", "2",
                     "--files-per-project", "2", "--profile", "tiny",
                     "--out", again]) == 0
        for proj in ("proj00", "proj01"):
            for name in ("file000.ml0", "file001.ml0"):
                a = open(os.path.join(workspace["corpus"], proj, name)).read()
                b = open(os.path.join(again, proj, name)).read()
                assert a == b

    def test_seed_changes_output(self, workspace, tmp_path):
        other = str(tmp_path / "other")
        assert main(["generate", "--seed", "4", "--projects", "2",
                     "--files-per-project", "2", "--profile", "tiny",
                     "--out", other]) == 0
        a = open(os.path.join(workspace["corpus"],
                              "proj00", "file000.ml0")).read()
        b = open(os.path.join(other, "proj00", "file000.ml0")).read()
        assert a != b


class TestExtract:
    def test_writes_jsonl(self, workspace, capsys):
        lines = open(workspace["data"]).read().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"instance_id", "tokens", "placeholders"} <= set(record)

    def test_missing_corpus_fails(self, tmp_path, capsys):
        assert main(["extract", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSplit:
    def test_partitions_cover_all_files(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert main(["generate", "--seed", "5", "--projects", "5",
                     "--files-per-project", "4", "--profile", "tiny",
                     "--out", corpus]) == 0
        out = str(tmp_path / "split.json")
        assert main(["split", "--seed", "0", "--corpus", corpus,
                     "--out", out]) == 0
        split = json.load(open(out))
        assert sorted(split) == ["test", "train", "unseen_test", "valid"]
        seen = split["train"] + split["valid"] + split["test"] \
            + split["unseen_test"]
        assert sorted(seen) == sorted(
            f"{proj}/{name}"
            for proj in os.listdir(corpus)
            for name in os.listdir(os.path.join(corpus, proj)))
        assert len(seen) == len(set(seen))

    def test_too_few_files_fails(self, workspace, tmp_path, capsys):
        assert main(["split", "--seed", "0", "--corpus",
                     workspace["corpus"],
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "empty partition" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_written(self, workspace):
        record = json.load(open(workspace["model"]))
        assert record["config"]["variant"] == "loc"
        assert "epoch" in record["config"]

    def test_deterministic_checkpoint_bytes(self, workspace, tmp_path,
                                            capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            assert main(["train", "--seed", "1", "--data",
                         workspace["data"], "--variant", "loc", "--hidden",
                         "4", "--epochs", "1", "--checkpoint", path]) == 0
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]

    def test_config_file_overrides_flags(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# comment\nhidden = 4\nepochs = 1\n")
        path = str(tmp_path / "cfg-model.json")
        assert main(["train", "--seed", "1", "--data", workspace["data"],
                     "--variant", "loc", "--hidden", "64", "--epochs", "9",
                     "--config", str(cfg), "--checkpoint", path]) == 0
        record = json.load(open(path))
        assert record["config"]["hyper"]["hidden"] == 4

    def test_bad_config_line_fails(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert main(["train", "--data", workspace["data"], "--config",
                     str(cfg), "--checkpoint",
                     str(tmp_path / "m.json")]) == 1
        assert "bad config line" in capsys.readouterr().err

    def test_resume_continues_epoch_numbering(self, workspace, tmp_path,
                                              capsys):
        path = str(tmp_path / "resumed.json")
        assert main(["train", "--seed", "1", "--data", workspace["data"],
                     "--resume", workspace["model"], "--epochs", "1",
                     "--checkpoint", path]) == 0
        first = json.load(open(workspace["model"]))["config"]["epoch"]
        assert json.load(open(path))["config"]["epoch"] == first + 1


class TestEval:
    def test_all_sections(self, workspace, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--restarts", "1",
                     "--max-sweeps", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-placeholder" in out
        assert "full-snippet" in out
        assert "accuracy" in out

    def test_single_mode(self, workspace, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     workspace["model"], "--mode", "per-placeholder"]) == 0
        out = capsys.readouterr().out
        assert "per-placeholder" in out and "full-snippet" not in out

    def test_missing_model_fails(self, workspace, tmp_path, capsys):
        assert main(["eval", "--data", workspace["data"], "--model",
                     str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestPaste:
    def test_rewrites_target(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        out = tmp_path / "out.ml0"
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model",
                     workspace["model"], "--restarts", "1",
                     "--max-sweeps", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("->") == 8  # one decision line per placeholder
        parse(tokenize(out.read_text()))

    def test_variant_mismatch_fails(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model",
                     workspace["model"], "--variant", "hybrid"]) == 1
        assert "variant" in capsys.readouterr().err

    def test_bad_at_argument_fails(self, workspace, tmp_path, capsys):
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "nowhere", "--model",
                     workspace["model"]]) == 1
        assert "LINE:COL" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("variant", None), ("hyper", None), ("types", None),
        ("lexemes", None), ("variant", 3), ("hyper", [16]),
        ("types", "int"), ("lexemes", [1, 2])])
    def test_malformed_checkpoint_fails(self, workspace, tmp_path, capsys,
                                        key, value):
        with open(workspace["model"]) as f:
            doc = json.load(f)
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        target = tmp_path / "target.ml0"
        snippet = tmp_path / "snippet.ml0"
        target.write_text(TARGET)
        snippet.write_text(SNIPPET)
        assert main(["paste", "--target", str(target), "--snippet",
                     str(snippet), "--at", "3:3", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err


class TestDumps:
    def test_dump_dataflow(self, workspace, tmp_path, capsys):
        src = tmp_path / "f.ml0"
        src.write_text(TARGET)
        assert main(["dump-dataflow", "--file", str(src)]) == 0
        out = capsys.readouterr().out
        # one tab-separated line per occurrence; entry params seed from eps
        assert out.startswith("6\t0\t-\t-\teps\teps\n")
        assert len(out.splitlines()) == 4  # arr, lim, sum decl + use

    def test_dump_usage_vectors(self, workspace, capsys):
        assert main(["dump-usage-vectors", "--data", workspace["data"],
                     "--model", workspace["model"], "--limit", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unparseable_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.ml0"
        bad.write_text("int f( {")
        assert main(["dump-dataflow", "--file", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_bad_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["generate", "--profile", "quantum", "--out", "x"])
        assert e.value.code == 2

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("SMARTPASTE_SEED", "42")
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.seed == 42
