"""The one checksummed JSON envelope (``repro.ioutil.seal_json`` /
``open_json``) and both of its readers, under one damage battery: a dist
checkpoint raises ``CheckpointCorrupt`` naming the file, and the run store
skips the file, counts it, and falls back to the runs that still load."""

import json

import pytest

from repro.dist.checkpoint import (
    Checkpoint,
    CheckpointCorrupt,
    load_checkpoint,
    write_checkpoint,
)
from repro.ioutil import EnvelopeError, open_json, seal_json
from repro.obs import MetricsRegistry, use_registry
from repro.obs.runstore import RunStore


def _rewrite(text, edit):
    envelope = json.loads(text)
    edit(envelope)
    return json.dumps(envelope)


def _flip_payload_byte(envelope):
    p = envelope["payload"]
    k = len(p) // 2
    envelope["payload"] = p[:k] + chr(ord(p[k]) ^ 1) + p[k + 1 :]


#: damage name -> (text -> damaged text, the reason the reader gives)
DAMAGES = {
    "truncated": (lambda t: t[: len(t) // 2], "not valid JSON"),
    "not_json": (lambda t: "<html>" + t, "not valid JSON"),
    "wrong_format": (
        lambda t: _rewrite(t, lambda e: e.update(format="repro-other-v1")),
        "unknown format",
    ),
    "missing_field": (lambda t: _rewrite(t, lambda e: e.pop("checksum")), "incomplete"),
    "flipped_payload_byte": (lambda t: _rewrite(t, _flip_payload_byte), "checksum"),
}


def damage_open_json(tmp_path, damage, reason):
    text = seal_json("repro-test-v1", {"round": 3, "model": "{}"})
    assert open_json("repro-test-v1", text) == {"round": 3, "model": "{}"}
    with pytest.raises(EnvelopeError, match=reason):
        open_json("repro-test-v1", damage(text))


def damage_checkpoint(tmp_path, damage, reason):
    path = write_checkpoint(
        tmp_path / "ckpt-000001.json",
        Checkpoint(round=1, model_payload="{}", params_digest="abc"),
    )
    assert load_checkpoint(path).round == 1
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(CheckpointCorrupt, match=reason) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert isinstance(info.value.__cause__, EnvelopeError)


def damage_runstore(tmp_path, damage, reason):
    store = RunStore(tmp_path / "runs", commit_resolver=lambda: "deadbeefcafe")
    good = store.submit("hotpath", {"t_s": 1.0})
    bad = store.submit("hotpath", {"t_s": 9.9})
    bad.path.write_text(damage(bad.path.read_text(encoding="utf-8")), encoding="utf-8")
    registry = MetricsRegistry()
    with use_registry(registry):
        assert [r.run_id for r in store.runs("hotpath")] == [good.run_id]
        (latest,) = store.latest("hotpath", 1)
    assert latest.run_id == good.run_id
    assert registry.counter("runstore_torn_skipped_total", "").value == 2


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("reader", [damage_open_json, damage_checkpoint, damage_runstore])
def test_damaged_envelope_is_refused(tmp_path, reader, damage):
    reader(tmp_path, *DAMAGES[damage])
