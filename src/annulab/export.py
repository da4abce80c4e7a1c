"""Deterministic text exports: CSV, JSON, fields and minimal SVG line charts.

All writers emit LF line endings and format floats with ``repr`` (shortest
round-trip), so identical inputs produce byte-identical files.  A field
export is two halves: :func:`mesh_text` formats what depends on the mesh
alone, and :func:`write_values` adds the values and writes the files, so the
CLI formats the mesh half of a fine mesh in a forked process while the field
is solved.
"""

from __future__ import annotations

import json

import numpy as np

# triangles formatted per string in the CELLS section of mesh_text; it
# bounds the index tuple and the text built at once, and leaves the file
# unchanged
CELLS_BLOCK = 16384


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reprs(a) -> list:
    """``repr`` of every float of ``a``, each distinct magnitude formatted
    once.

    ``repr`` of a negative float, ``-0.0`` and ``-inf`` included, is ``-``
    before ``repr`` of its magnitude; a NaN prints ``nan`` whatever its sign
    bit.
    """
    a = np.asarray(a, dtype=float)
    mags, inverse = np.unique(np.abs(a), return_inverse=True)
    texts = list(map(repr, mags.tolist()))
    texts += ["-" + t for t in texts]
    negative = np.signbit(a) & ~np.isnan(a)
    return np.array(texts, dtype=object)[inverse + mags.size * negative].tolist()


def mesh_text(mesh, vtk: bool = False) -> tuple[str, bytes | None]:
    """The mesh half of :func:`write_field`, a pure function of ``mesh``.

    Returns the CSV rows ``x,y,%s``, one a vertex, and, with ``vtk``, the
    legacy ASCII 2.0 unstructured grid of the mesh triangles up to its
    ``POINT_DATA`` section, as bytes, since it is written as it is; without
    ``vtk`` the second item is ``None``.  Each coordinate is formatted once:
    a ``repr`` holds neither ``%`` nor a comma, so the rows take the values
    by ``%`` and the VTK points are the CSV text with spaces.
    """
    x, y = _reprs(mesh.vertices[:, 0]), _reprs(mesh.vertices[:, 1])
    xy = list(map(",".join, zip(x, y)))
    rows = ",%s\n".join(xy) + ",%s\n"
    if not vtk:
        return rows, None
    n, nt = mesh.num_vertices, mesh.num_triangles
    parts = ["# vtk DataFile Version 2.0\nannulab mesh\nASCII\n"
             f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
             (" 0.0\n".join(xy) + " 0.0\n").replace(",", " "),
             f"CELLS {nt} {4 * nt}\n"]
    for i in range(0, nt, CELLS_BLOCK):
        block = mesh.triangles[i:i + CELLS_BLOCK]
        parts.append("3 %d %d %d\n" * len(block) % tuple(block.ravel().tolist()))
    parts.append(f"CELL_TYPES {nt}\n" + "5\n" * nt)
    return rows, "".join(parts).encode()


def write_values(text, values, base, name: str = "u"):
    """The value half of :func:`write_field`: write ``base.csv`` and, when
    the :func:`mesh_text` ``text`` holds a VTK head, ``base.vtk``, with the
    ``repr`` of every value."""
    rows, head = text
    v = _reprs(values)
    with open(f"{base}.csv", "w", newline="\n") as fh:
        fh.write(f"x,y,{name}\n")
        fh.write(rows % tuple(v))
    if head is None:
        return
    with open(f"{base}.vtk", "wb") as fh:
        fh.write(head)
        fh.write((f"POINT_DATA {len(v)}\nSCALARS {name} double 1\n"
                  "LOOKUP_TABLE default\n" + "\n".join(v) + "\n").encode())


def write_field(field, base, name: str = "u", vtk: bool = False):
    """Write a vertex field to ``base.csv`` and, with ``vtk``, ``base.vtk``.

    The CSV has the columns ``x,y`` and ``name``.  The VTK is a legacy
    ASCII 2.0 unstructured grid of the mesh triangles with the values as the
    point scalars ``name``.  Each coordinate and value is formatted once and
    the same text goes into both files.  The mesh half, :func:`mesh_text`,
    needs no values, so it may be formatted while they are computed, and
    :func:`write_values` writes the rest.
    """
    write_values(mesh_text(field.mesh, vtk), field.values, base, name)


def write_json(path, payload):
    """Strict JSON: a NaN or infinite float raises ``ValueError`` before
    ``path`` is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def svg_line_chart(path, series, title, xlabel, ylabel):
    """Plot labelled (label, x, y) series as polylines in a standalone SVG
    1.1 file of 640 x 420 pixels."""
    width, height, pad = 640, 420, 56
    xs = [float(v) for _, x, _ in series for v in x]
    ys = [float(v) for _, _, y in series for v in y]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
    ]
    for i, (label, x, y) in enumerate(series):
        color = colors[i % len(colors)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        yy = pad + 16 * i
        parts += [
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>',
            f'<line x1="{width - pad - 90}" y1="{yy}" x2="{width - pad - 70}" '
            f'y2="{yy}" stroke="{color}" stroke-width="1.5"/>',
            f'<text x="{width - pad - 64}" y="{yy + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>',
        ]
    # axis extremes
    parts += [
        f'<text x="{pad}" y="{height - pad + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{x0:.4g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad - 6}" y="{height - pad + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.6g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.6g}</text>',
        "</svg>",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
