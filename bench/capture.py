"""Regenerate the benchmark's stored data from the current ``src/hermann``.

    python3 bench/capture.py

Writes ``data/vertices.json`` (alcove vertices of every point-queries
datum, which the stream generator needs) and ``data/expected.json`` (stdout
of every operation of the default seed's streams).  Stored outputs are the
reference that later commits must reproduce byte for byte, so run this
only on the commit that defines them.
"""

import json
import os

import harness
import workloads

def main():
    hermann = harness.import_hermann()
    os.makedirs(os.path.dirname(workloads.VERTICES_FILE), exist_ok=True)
    verts = {}
    for key in workloads.vertex_data():
        name, params = workloads.catalog_call(key)
        d = hermann.catalog(name, **params)
        verts[key] = [[str(c) for c in v.coeffs] for v in hermann.alcove_vertices(d)]
        print(f"vertices {key}: {len(verts[key])}", flush=True)
    with open(workloads.VERTICES_FILE, "w", encoding="utf-8") as fh:
        json.dump(verts, fh, indent=1, sort_keys=True)

    runner = harness.Runner(hermann)
    runner.build_data(workloads.MINIMAL_DATA)
    expected = {}
    for w in workloads.WORKLOADS:
        s = workloads.stream(w, workloads.DEFAULT_SEED)
        ops = s.ops
        for op in ops:
            o = runner.execute(op)
            if o.failures:
                raise SystemExit(f"{op.key}: {o.failures}")
            expected[op.key] = o.stdout
        print(f"expected {w}: {len(ops)} operations", flush=True)
    with open(harness.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
