"""Test-only writers and readers of the files ``atent`` reads or writes:
an IDX image/label pair to load, and the report CSV read back."""
import gzip
import struct

import numpy as np

from atent.data import IMAGE_MAGIC, LABEL_MAGIC
from atent.reporting import CSV_HEADER, EvalRow


def write_idx(images_u8: np.ndarray, labels_u8: np.ndarray, images_path, labels_path,
              compress: bool = False) -> None:
    """Write (n, h, w) uint8 images and (n,) uint8 labels as an IDX pair."""
    images_u8 = np.ascontiguousarray(images_u8, dtype=np.uint8)
    labels_u8 = np.ascontiguousarray(labels_u8, dtype=np.uint8)
    if images_u8.ndim != 3 or labels_u8.ndim != 1 or images_u8.shape[0] != labels_u8.shape[0]:
        raise ValueError("expected (n, h, w) images and (n,) labels")
    n, h, w = images_u8.shape
    img_blob = struct.pack(">iiii", IMAGE_MAGIC, n, h, w) + images_u8.tobytes()
    lbl_blob = struct.pack(">ii", LABEL_MAGIC, n) + labels_u8.tobytes()
    opener = gzip.open if compress else open
    with opener(images_path, "wb") as f:
        f.write(img_blob)
    with opener(labels_path, "wb") as f:
        f.write(lbl_blob)


def parse_report_csv(text: str) -> list[EvalRow]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a report CSV (bad header)")
    rows = []
    for ln in lines[1:]:
        d, a, n, eps, nat, rob, seed, wall = ln.split(",")
        rows.append(EvalRow(d, a, n, float(eps), float(nat), float(rob),
                            int(seed), int(wall)))
    return rows
