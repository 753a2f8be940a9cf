"""Command line front door: solve, verify, census, gen, and bench.

Exit codes encode verdicts so harnesses never parse prose: 0 a linkage was
found (or the requested action succeeded), 2 an obstruction witness was
returned, 3 the constructive case analysis fell through or a certificate
failed its own check (a bug signal; nothing is emitted), and 1 malformed
input.  Output is deterministic: fixed key order, no timestamps
in the certified body.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import Polytope, build_cube_polytope, build_from_incidence, link_polytope
from .errors import CaseNotCovered, CubelinkError
from .hypercube import cube_graph, vertex_from_str, vertex_to_str
from .linkage.certs import Unlinkable, certify
from .linkage.cube import (cube_linkage, detect_config_3F, solve_cube,
                           solve_cube_strong)
from .linkage.cubical import solve_cubical, solve_cubical_strong
from .linkage.link import solve_link
from .oracle import census, oracle_linkage
from .paths import validate_linkage


class InputError(Exception):
    pass


# -- host plumbing -----------------------------------------------------------


class Host:
    """A solve/census host: its graph, labels, and a solver dispatch key."""

    def __init__(self, kind, spec, graph, label_of, vertex_of, polytope=None,
                 cube_dim=None, link_vertex=None):
        self.kind = kind
        self.spec = spec
        self.graph = graph
        self.label_of = label_of
        self.vertex_of = vertex_of
        self.polytope = polytope
        self.cube_dim = cube_dim
        self.link_vertex = link_vertex


def _cube_host(d):
    return Host("cube", {"kind": "cube", "dim": d}, cube_graph(d),
                lambda v: vertex_to_str(v, d), _cube_resolver(d), cube_dim=d)


def _cube_resolver(d):
    def resolve(label):
        v = vertex_from_str(label)
        if len(label) != d:
            raise InputError(f"vertex {label!r} is not {d} bits")
        return v
    return resolve


def _link_host(cube_dim, vertex_label=None):
    v = vertex_from_str(vertex_label) if vertex_label else 0
    P = link_polytope(cube_dim, v)
    spec = {"kind": "link", "cube_dim": cube_dim,
            "vertex": vertex_to_str(v, cube_dim)}
    return Host("link", spec, P.graph, lambda u: P.labels[u],
                _label_resolver(P.labels), polytope=P, cube_dim=cube_dim,
                link_vertex=v)


def _lattice_host(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
        P = build_from_incidence(data["dim"], data["vertices"], data["facets"],
                                 labels=data.get("labels"))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise InputError(f"bad lattice file {path}: {e}")
    spec = {"kind": "lattice", "path": str(path), "dim": P.dim}
    return Host("lattice", spec, P.graph, lambda u: P.labels[u],
                _label_resolver(P.labels), polytope=P)


def _label_resolver(labels):
    back = {lbl: v for v, lbl in labels.items()}

    def resolve(label):
        if label not in back:
            raise InputError(f"unknown vertex label {label!r}")
        return back[label]
    return resolve


def _host_from_args(args, spec=None):
    if spec is not None:
        kind = spec.get("kind")
        if kind == "cube":
            return _cube_host(int(spec["dim"]))
        if kind == "link":
            return _link_host(int(spec["cube_dim"]), spec.get("vertex"))
        if kind == "lattice":
            path = getattr(args, "lattice", None) or spec.get("path")
            if not path:
                raise InputError("lattice host needs --lattice FILE")
            return _lattice_host(path)
        raise InputError(f"unknown host kind {kind!r}")
    given = [name for name in ("cube", "link", "lattice")
             if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise InputError("choose exactly one of --cube D, --link D, "
                         "--lattice FILE")
    if args.cube is not None:
        return _cube_host(args.cube)
    if args.link is not None:
        return _link_host(args.link, getattr(args, "vertex", None))
    return _lattice_host(args.lattice)


def _parse_pairs(host, text):
    pairs = []
    for chunk in text.split(","):
        ends = chunk.strip().split("-")
        if len(ends) != 2:
            raise InputError(f"bad pair {chunk!r}, want LABEL-LABEL")
        pairs.append((host.vertex_of(ends[0]), host.vertex_of(ends[1])))
    return pairs


def _parse_avoid(host, text):
    if not text:
        return []
    return [host.vertex_of(c.strip()) for c in text.split(",")]


# -- solve -------------------------------------------------------------------


def _constructive(host, pairs, avoid, strong):
    if strong:
        if len(avoid) != 1:
            raise InputError("--strong needs exactly one --avoid vertex")
        x = avoid[0]
        if host.kind == "cube":
            return solve_cube_strong(host.cube_dim, pairs, x)
        if host.polytope is not None:
            return solve_cubical_strong(host.polytope, pairs, x)
        raise InputError("--strong unsupported for this host")
    if host.kind == "cube":
        if avoid:
            return cube_linkage(host.cube_dim, pairs, avoid)
        return solve_cube(host.cube_dim, pairs)
    if avoid:
        raise InputError("--avoid outside cube hosts requires --strong")
    if host.kind == "link":
        return solve_link(host.cube_dim, host.link_vertex, pairs)
    return solve_cubical(host.polytope, pairs)


def _oracle_solve(host, pairs, avoid, instance):
    def search(ps, trace):
        trace.append("oracle/search")
        sol = oracle_linkage(host.graph, ps, avoid=avoid)
        if sol is None:
            raise Unlinkable(_detect_witness(host, ps))
        return sol
    return certify(instance, pairs, search, lambda: host.graph, avoid)


def _detect_witness(host, pairs):
    P = host.polytope
    if host.kind == "cube":
        P = build_cube_polytope(host.cube_dim)
    if P.dim == 3 and len(pairs) == 2:
        return detect_config_3F(P, pairs)
    return None


def _emit(payload, out=None):
    (out or sys.stdout).write(json.dumps(payload, indent=2) + "\n")


def _dot(host, pairs, paths):
    colors = ["red", "blue", "darkgreen", "orange", "purple"]
    on_path = {}
    for i, p in enumerate(paths or []):
        for a, b in zip(p, p[1:]):
            on_path[frozenset((a, b))] = colors[i % len(colors)]
    lines = ["graph cubelink {", "  node [shape=circle fontsize=10];"]
    for v in sorted(host.graph):
        mark = ' style=filled fillcolor=lightgray' \
            if any(v in p for p in pairs) else ""
        lines.append(f'  "{host.label_of(v)}" [{mark.strip()}];'
                     if mark else f'  "{host.label_of(v)}";')
    seen = set()
    for v in sorted(host.graph):
        for w in host.graph[v]:
            e = frozenset((v, w))
            if e in seen:
                continue
            seen.add(e)
            color = on_path.get(e)
            attr = f' [color={color} penwidth=2]' if color else ""
            lines.append(f'  "{host.label_of(v)}" -- "{host.label_of(w)}"'
                         f'{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_solve(args):
    if args.instance:
        try:
            with open(args.instance) as fh:
                data = json.load(fh)
            host = _host_from_args(args, spec=data["host"])
            pairs = [(host.vertex_of(a), host.vertex_of(b))
                     for a, b in data["pairs"]]
            avoid = [host.vertex_of(l) for l in data.get("avoid", [])]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise InputError(f"bad instance file: {e}")
    else:
        host = _host_from_args(args)
        if not args.pairs:
            raise InputError("need --pairs or --instance")
        pairs = _parse_pairs(host, args.pairs)
        avoid = _parse_avoid(host, args.avoid)

    instance = {
        "host": host.spec,
        "pairs": [[host.label_of(s), host.label_of(t)] for s, t in pairs],
        "avoid": [host.label_of(v) for v in avoid],
        "strong": bool(args.strong),
    }
    if args.method == "oracle":
        cert = _oracle_solve(host, pairs, avoid, instance)
    else:
        cert = _constructive(host, pairs, avoid, args.strong)
        if args.method == "auto" and cert.paths is None:
            # cross-check the witness against ground truth before emitting
            if oracle_linkage(host.graph, pairs, avoid=avoid) is not None:
                raise CaseNotCovered("witness contradicted by search")
    payload = cert.to_json(label=host.label_of)
    payload["instance"] = instance
    if args.trace:
        for line in cert.trace:
            print(line, file=sys.stderr)
    if args.dot:
        sys.stdout.write(_dot(host, pairs, cert.paths))
    else:
        _emit(payload)
    return 0 if cert.paths is not None else 2


# -- verify ------------------------------------------------------------------


def _face_distance(G, face, s, t):
    from collections import deque

    face = set(face)
    seen = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        if u == t:
            return seen[u]
        for w in G[u]:
            if w in face and w not in seen:
                seen[w] = seen[u] + 1
                q.append(w)
    return None


def _verify_obstruction(host, pairs, obs):
    """Check a config-3F witness, the one configuration that blocks a host.

    It blocks only two pairs in a 3-polytope: both pairs are the diagonals of
    one 2-face.  config-dF blocks a linkage inside a vertex star, never a
    whole host, so a host certificate carrying it is rejected.
    """
    kind = obs.get("kind")
    if kind != "config-3F":
        return False, f"obstruction kind {kind!r} does not block a host"
    dim = host.polytope.dim if host.polytope else host.cube_dim
    if dim != 3 or len(pairs) != 2:
        return False, "config-3F blocks only 2 pairs in a 3-polytope"
    X = {v for p in pairs for v in p}
    face = [host.vertex_of(l) for l in obs["facet"]]
    s1, t1 = (host.vertex_of(obs["pair"][0]), host.vertex_of(obs["pair"][1]))
    if (s1, t1) not in pairs and (t1, s1) not in pairs:
        return False, "witness pair is not one of the instance pairs"
    if len(X & set(face)) < 4:
        return False, "too few terminals in the witness face"
    P = host.polytope or build_cube_polytope(host.cube_dim)
    if not P.face_of(face) or P.dim_of(face) != 2:
        return False, "witness face is not a 2-face of the host"
    d = _face_distance(host.graph, face, s1, t1)
    if d != 2:
        return False, f"pair distance {d} in face, expected 2"
    nbrs = sorted(w for w in host.graph[t1] if w in set(face))
    if not all(w in X for w in nbrs):
        return False, "not every face neighbour of t1 is a terminal"
    if sorted(host.vertex_of(l) for l in obs["blocking"]) != nbrs:
        return False, "blocking list is not t1's face neighbours"
    return True, "ok"


def cmd_verify(args):
    try:
        with open(args.certificate) as fh:
            data = json.load(fh)
        inst = data["instance"]
        host = _host_from_args(args, spec=inst["host"])
        pairs = [(host.vertex_of(a), host.vertex_of(b))
                 for a, b in inst["pairs"]]
        avoid = [host.vertex_of(l) for l in inst.get("avoid", [])]
        result = data["result"]
        if "linkage" in result:
            paths = [[host.vertex_of(l) for l in p] for p in result["linkage"]]
            ok, msg = validate_linkage(host.graph, pairs, paths, avoid)
        elif "obstruction" in result:
            ok, msg = _verify_obstruction(host, pairs, result["obstruction"])
        else:
            ok, msg = False, "certificate has neither linkage nor obstruction"
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise InputError(f"bad certificate: {e}")
    print(f"{'PASS' if ok else 'FAIL'}: {msg}")
    return 0 if ok else 1


# -- census ------------------------------------------------------------------


def cmd_census(args):
    host = _host_from_args(args)
    detector = None
    P = host.polytope
    if host.kind == "cube":
        P = build_cube_polytope(host.cube_dim)
    if P.dim == 3 and args.k == 2:
        detector = (lambda pairs:
                    "config-3F" if detect_config_3F(P, pairs) else None)
    mode = "exhaustive" if args.exhaustive else "sample"
    if not args.exhaustive and not args.sample:
        raise InputError("census needs --exhaustive or --sample N")
    host_name = json.dumps(host.spec, sort_keys=True)
    rep = census(host.graph, args.k, host=host_name, mode=mode,
                 sample=args.sample, seed=args.seed, detector=detector)
    out = rep.to_json()
    out["witness_samples"] = [
        {"pairs": [[host.label_of(a), host.label_of(b)] for a, b in w["pairs"]],
         "kind": w["kind"]} for w in out["witness_samples"]]
    out["detector_mismatches"] = [
        {"pairs": [[host.label_of(a), host.label_of(b)] for a, b in m["pairs"]],
         "detector": m["detector"], "oracle": m["oracle"]}
        for m in out["detector_mismatches"]]
    _emit(out)
    return 0


# -- gen ---------------------------------------------------------------------


def _polytope_lattice_json(P: Polytope):
    order = sorted(P.vertices)
    index = {v: i for i, v in enumerate(order)}
    return {
        "dim": P.dim,
        "vertices": len(order),
        "facets": [sorted(index[v] for v in f) for f in P.facets],
        "labels": [P.labels[v] for v in order],
    }


def cmd_gen(args):
    if args.what == "cube":
        if args.dim is None:
            raise InputError("gen cube needs --dim")
        _emit(_polytope_lattice_json(build_cube_polytope(args.dim)))
        return 0
    if args.what == "link":
        if args.cube is None:
            raise InputError("gen link needs --cube D")
        v = vertex_from_str(args.vertex) if args.vertex else 0
        _emit(_polytope_lattice_json(link_polytope(args.cube, v)))
        return 0
    if args.what == "random-instance":
        if args.cube is None or args.k is None:
            raise InputError("gen random-instance needs --cube D and --k")
        import random

        rng = random.Random(args.seed)
        d = args.cube
        n = 2 * args.k + (1 if args.strong else 0)
        X = rng.sample(range(1 << d), n)
        inst = {
            "host": {"kind": "cube", "dim": d},
            "pairs": [[vertex_to_str(X[2 * i], d), vertex_to_str(X[2 * i + 1], d)]
                      for i in range(args.k)],
            "avoid": [vertex_to_str(X[-1], d)] if args.strong else [],
        }
        _emit(inst)
        return 0
    raise InputError(f"unknown gen target {args.what!r}")


# -- bench -------------------------------------------------------------------


def cmd_bench(args):
    import random
    import time

    rng = random.Random(args.seed)
    rows = []
    for d in (4, 5, 6, 7):
        k = (d + 1) // 2
        t0 = time.monotonic()
        n = args.n
        for _ in range(n):
            X = rng.sample(range(1 << d), 2 * k)
            pairs = [(X[2 * i], X[2 * i + 1]) for i in range(k)]
            cert = solve_cube(d, pairs)
            assert cert.paths is not None
        dt = time.monotonic() - t0
        rows.append((f"Q_{d} k={k}", n, dt))
    for name, n, dt in rows:
        print(f"{name:12s} {n:5d} solves  {dt:8.3f}s  "
              f"{1000 * dt / n:8.2f} ms/solve")
    return 0


# -- entry point -------------------------------------------------------------


def _add_host_flags(p):
    p.add_argument("--cube", type=int, help="host: the cube Q_D")
    p.add_argument("--link", type=int,
                   help="host: the link of a vertex in Q_D")
    p.add_argument("--vertex", help="link host: vertex label (default 0...0)")
    p.add_argument("--lattice", help="host: polytope lattice JSON file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cubelink",
        description="Vertex-disjoint path linkages in cubes and cubical "
                    "polytopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a linkage instance")
    _add_host_flags(p)
    p.add_argument("--pairs", help='terminal pairs, e.g. "000-111,001-110"')
    p.add_argument("--avoid", help="comma-separated vertices to avoid")
    p.add_argument("--instance", help="instance JSON file instead of flags")
    p.add_argument("--strong", action="store_true",
                   help="strong mode: the avoided vertex is the unpaired "
                        "terminal")
    p.add_argument("--method", choices=("auto", "constructive", "oracle"),
                   default="auto")
    p.add_argument("--trace", action="store_true",
                   help="echo the proof trace to stderr")
    p.add_argument("--dot", action="store_true",
                   help="emit a DOT rendering instead of JSON")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate")
    p.add_argument("--lattice", help="lattice file override for lattice hosts")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("census", help="oracle census over pairings")
    _add_host_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("gen", help="generate lattices and instances")
    p.add_argument("what", choices=("cube", "link", "random-instance"))
    p.add_argument("--dim", type=int)
    p.add_argument("--cube", type=int)
    p.add_argument("--vertex")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="time the constructive solver")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CaseNotCovered as e:
        print(f"case not covered: {e} trace={e.trace}", file=sys.stderr)
        return 3
    except (ValueError, CubelinkError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
