"""The per-label head layout, kept only as a test oracle.

The package stores the heads packed, one row per label. The oracles that
check the packed code against one separate head per label split the rows
back out with :func:`per_label_params`.
"""

from fedfbn.network import HEAD_BIAS, HEAD_WEIGHT, key_kind


def per_label_params(params, labels):
    """``params`` with the packed heads split per label: the trunk, then per
    label ``head:<label>/weight`` ``(width, 1)`` and ``head:<label>/bias``
    ``(1,)``, views of the packed rows (writes go through)."""
    view = {key: value for key, value in params.items() if key_kind(key) != "head"}
    for j, label in enumerate(labels):
        view[f"head:{label}/weight"] = params[HEAD_WEIGHT][j, :, None]
        view[f"head:{label}/bias"] = params[HEAD_BIAS][j : j + 1]
    return view
