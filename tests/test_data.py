import json

import numpy as np
import pytest

from ecatch.data import (
    DatasetError,
    assign_splits,
    load_dataset,
    write_dataset,
)
from ecatch.synth import SynthSpec, generate

from conftest import make_dataset


def write_raw(tmp_path, n=3, d_text=4, d_img=2, rows=None, text=None, image=None,
              meta_override=None, skip_image=False):
    meta = {"n_posts": n, "d_text": d_text, "d_img": d_img, "format_version": 1}
    if meta_override:
        meta.update(meta_override)
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    if rows is None:
        rows = [
            {"id": f"p{i}", "label": i % 2, "timestamp": 100 + i, "has_image": i == 0}
            for i in range(n)
        ]
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n"
    )
    if text is None:
        text = np.arange(n * d_text, dtype=np.float64).reshape(n, d_text)
    np.asarray(text, dtype="<f4").tofile(tmp_path / "text.f32")
    if not skip_image:
        if image is None:
            image = np.ones((n, d_img))
        np.asarray(image, dtype="<f4").tofile(tmp_path / "image.f32")
    return tmp_path


def test_load_three_posts(tmp_path):
    # 3 x 4 float32 text matrix is exactly 48 bytes
    write_raw(tmp_path)
    assert (tmp_path / "text.f32").stat().st_size == 48
    ds = load_dataset(tmp_path)
    assert ds.n == 3
    assert ds.d_text == 4 and ds.d_img == 2
    assert ds.ids == ["p0", "p1", "p2"]
    assert list(ds.labels) == [0, 1, 0]
    np.testing.assert_array_equal(ds.text[1], [4, 5, 6, 7])


def test_missing_image_rows_are_zero(tmp_path):
    write_raw(tmp_path, image=np.full((3, 2), 9.0))
    ds = load_dataset(tmp_path)
    # only post 0 has an image
    np.testing.assert_array_equal(ds.image[0], [9.0, 9.0])
    assert np.linalg.norm(ds.image[1]) == 0.0
    assert np.linalg.norm(ds.image[2]) == 0.0


def test_ignored_image_rows_may_be_garbage(tmp_path):
    image = np.full((3, 2), np.nan)
    image[0] = 1.0
    write_raw(tmp_path, image=image)
    ds = load_dataset(tmp_path)  # NaNs sit only in has_image=false rows
    assert np.all(np.isfinite(ds.image))


def test_nan_in_text_reports_position(tmp_path):
    text = np.zeros((3, 4))
    text[1, 2] = np.nan
    write_raw(tmp_path, text=text)
    with pytest.raises(DatasetError, match=r"non-finite value at \(1, 2\)"):
        load_dataset(tmp_path)


def test_absent_image_file_means_no_images(tmp_path):
    write_raw(tmp_path, skip_image=True)
    ds = load_dataset(tmp_path)
    assert not ds.has_image.any()
    assert np.all(ds.image == 0.0)


def test_row_count_mismatch(tmp_path):
    write_raw(tmp_path, meta_override={"n_posts": 4})
    with pytest.raises(DatasetError, match="manifest has 3 rows"):
        load_dataset(tmp_path)


def test_matrix_size_mismatch(tmp_path):
    write_raw(tmp_path, text=np.zeros((3, 5)))
    with pytest.raises(DatasetError, match="text.f32"):
        load_dataset(tmp_path)


def test_duplicate_ids(tmp_path):
    rows = [
        {"id": "same", "label": 0, "timestamp": 1, "has_image": False}
        for _ in range(3)
    ]
    write_raw(tmp_path, rows=rows)
    with pytest.raises(DatasetError, match="duplicate post id"):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("label", 2, "label"),
        ("label", True, "label"),
        ("timestamp", -5, "timestamp"),
        ("timestamp", 1.5, "timestamp"),
        ("has_image", "yes", "has_image"),
    ],
)
def test_bad_manifest_fields(tmp_path, field, value, message):
    rows = [{"id": f"p{i}", "label": 0, "timestamp": 1, "has_image": False}
            for i in range(3)]
    rows[1][field] = value
    write_raw(tmp_path, rows=rows)
    with pytest.raises(DatasetError, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize("ts", [99999999999999999999, 2**63 - 1, 2**62 + 1])
def test_timestamps_beyond_window_arithmetic_name_their_line(tmp_path, ts):
    rows = [{"id": f"p{i}", "label": 0, "timestamp": 1, "has_image": False}
            for i in range(3)]
    rows[2]["timestamp"] = ts
    write_raw(tmp_path, rows=rows)
    with pytest.raises(DatasetError, match=r"manifest line 2: timestamp .*2\*\*62"):
        load_dataset(tmp_path)


def test_largest_accepted_timestamp_loads(tmp_path):
    rows = [{"id": f"p{i}", "label": 0, "timestamp": 2**62, "has_image": False}
            for i in range(3)]
    write_raw(tmp_path, rows=rows)
    assert load_dataset(tmp_path).timestamps.tolist() == [2**62] * 3


def test_bad_format_version(tmp_path):
    write_raw(tmp_path, meta_override={"format_version": 2})
    with pytest.raises(DatasetError, match="format_version"):
        load_dataset(tmp_path)


def test_extra_manifest_fields_preserved(tmp_path):
    rows = [
        {"id": f"p{i}", "label": 0, "timestamp": 1, "has_image": False, "event": i // 2}
        for i in range(3)
    ]
    write_raw(tmp_path, rows=rows)
    ds = load_dataset(tmp_path)
    assert ds.extra[2] == {"event": 1}


def test_roundtrip_bytes(tmp_path):
    ds, _ = generate(SynthSpec(n_events=2, posts_per_event=(5, 9), d_text=6,
                               d_img=3, missing_image=0.4, seed=3))
    first = tmp_path / "first"
    write_dataset(ds, first)
    loaded = load_dataset(first)
    second = tmp_path / "second"
    write_dataset(loaded, second)
    for name in ("text.f32", "image.f32"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    m1 = [json.loads(l) for l in (first / "manifest.jsonl").read_text().splitlines()]
    m2 = [json.loads(l) for l in (second / "manifest.jsonl").read_text().splitlines()]
    assert m1 == m2


def test_write_refuses_nonempty_dir(tmp_path):
    ds = make_dataset(np.zeros((2, 3)))
    (tmp_path / "junk").write_text("x")
    with pytest.raises(DatasetError, match="non-empty"):
        write_dataset(ds, tmp_path)
    write_dataset(ds, tmp_path, force=True)


def test_loaded_arrays_are_immutable(tmp_path):
    write_raw(tmp_path)
    ds = load_dataset(tmp_path)
    with pytest.raises(ValueError):
        ds.text[0, 0] = 5.0


# -- splits -------------------------------------------------------------------
def test_split_sizes_floor_rule():
    ds = make_dataset(np.zeros((10, 2)))
    out = assign_splits(ds, (0.8, 0.1, 0.1), seed=0)
    sizes = [len(out.split_indices(s)) for s in ("train", "val", "test")]
    assert sizes == [8, 1, 1]


def test_split_small_n_remainder_to_train():
    ds = make_dataset(np.zeros((7, 2)))
    out = assign_splits(ds, (0.8, 0.1, 0.1), seed=0)
    sizes = [len(out.split_indices(s)) for s in ("train", "val", "test")]
    assert sizes == [7, 0, 0]


def test_split_floor_rule_enumerated():
    # independent restatement of the rule for every small N
    for n in range(1, 21):
        ds = make_dataset(np.zeros((n, 2)))
        out = assign_splits(ds, (0.8, 0.1, 0.1), seed=5)
        n_val = int(np.floor(0.1 * n))
        n_test = int(np.floor(0.1 * n))
        sizes = [len(out.split_indices(s)) for s in ("train", "val", "test")]
        assert sizes == [n - n_val - n_test, n_val, n_test], n


def test_split_determinism_and_seed_sensitivity():
    ds = make_dataset(np.zeros((50, 2)))
    a = assign_splits(ds, (0.8, 0.1, 0.1), seed=3).split_assignment()
    b = assign_splits(ds, (0.8, 0.1, 0.1), seed=3).split_assignment()
    c = assign_splits(ds, (0.8, 0.1, 0.1), seed=4).split_assignment()
    assert a == b
    assert a != c


def test_split_validation():
    ds = make_dataset(np.zeros((5, 2)))
    with pytest.raises(DatasetError, match="sum to 1"):
        assign_splits(ds, (0.8, 0.1, 0.2), seed=0)
    with pytest.raises(DatasetError, match="positive"):
        assign_splits(ds, (1.0, 0.0 - 1e-12, 1e-12), seed=0)
    with pytest.raises(DatasetError, match="empty"):
        assign_splits(make_dataset(np.zeros((0, 2))), (0.8, 0.1, 0.1), seed=0)
