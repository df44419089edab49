"""Command-line front end: matrix | truncate | verify | optimize | fidelity."""

from __future__ import annotations

import argparse
import ast
import csv
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import catalog as catalog_mod
from .detectors import (CONVENTIONAL, NUMBER_RESOLVING, SINGLE_PHOTON,
                        DetectorModel, fidelity, heralded_density_matrix,
                        nu_from_dark_rate, outcome_for_count)
from .evolution import detected_blocks
from .fock import InputField, coherent_expansion, fock_expansion
from .network import GqsdSpec, gqsd_matrix
from .scissors import (MeasurementEvent, TruncationTarget, ZeroProbabilityError,
                       _heralded_qudit, conditional_amplitudes, truncate,
                       truncation_defect)
from .search import SearchConfig, optimize


class ConfigError(ValueError):
    """Malformed run configuration; carries the offending line number."""


_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div,
                  ast.USub, ast.UAdd, ast.Load)
_ALLOWED_NAMES = {"pi": math.pi, "sqrt": math.sqrt, "e": math.e,
                  "cos": math.cos, "sin": math.sin}


def eval_number(text: str) -> float:
    """Evaluate a numeric expression like '1/3', 'pi/2' or '(3-sqrt(3))/6'."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"disallowed expression in {text!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
            raise ConfigError(f"unknown symbol {node.id!r} in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_NAMES:
                raise ConfigError(f"disallowed call in {text!r}")
    try:
        return float(eval(compile(tree, "<config>", "eval"), {"__builtins__": {}},
                          _ALLOWED_NAMES))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise ConfigError(f"cannot evaluate {text!r}: {exc}") from exc


def eval_integer(text: str) -> int:
    """Evaluate a numeric expression that must be a whole number ('3', '2*2', '1e3')."""
    value = eval_number(text)
    if not (math.isfinite(value) and value.is_integer()):
        raise ConfigError(f"expected a whole number, got {text!r}")
    return int(value)


def _split_top_level(text: str) -> list:
    """Split on commas that are not inside parentheses."""
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def parse_complex(text: str) -> complex:
    """Complex values are written as (re, im) pairs; bare reals also accepted."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = _split_top_level(text[1:-1])
        if len(inner) != 2:
            raise ConfigError(f"complex value needs (re, im), got {text!r}")
        return complex(eval_number(inner[0]), eval_number(inner[1]))
    return complex(eval_number(text), 0.0)


@dataclass
class RunConfig:
    """Flat key-value run configuration; see parse()/serialize()."""

    transmittances: tuple = (1.0,) * 5
    phases: tuple = (0.0,) * 6
    mirror_zeta: float = 0.0
    fock_inputs: tuple = (1, 1, 1)
    counts: tuple = (1, 1, 1)
    field_kind: str = "coherent"
    alpha: complex = 0.4 + 0j
    tail_epsilon: float = 1e-12
    gammas: tuple = ()
    target_keep: tuple | None = None
    eta: dict = field(default_factory=lambda: {"c": 0.7, "s": 0.88, "r": 0.88})
    r_dark: dict = field(default_factory=lambda: {"c": 100.0, "s": 1e4, "r": 1e4})
    tau_res: float = 10e-9
    seeds: int = 20
    max_iterations: int = 4000
    convergence_tol: float = 1e-12
    random_seed: int = 0
    fix_t3: float | None = None

    def spec(self) -> GqsdSpec:
        return GqsdSpec(self.transmittances, self.phases, self.mirror_zeta)

    def event(self) -> MeasurementEvent:
        return MeasurementEvent(self.fock_inputs, self.counts)

    def field(self) -> InputField:
        if self.field_kind == "coherent":
            return coherent_expansion(self.alpha, self.tail_epsilon)
        if self.field_kind == "fock":
            if not self.gammas:
                raise ConfigError("field_kind = fock requires gammas")
            return fock_expansion(self.gammas)
        raise ConfigError(f"unknown field_kind {self.field_kind!r}")

    def target(self) -> TruncationTarget:
        d = self.event().dim
        if self.target_keep is None:
            return TruncationTarget.full(d)
        return TruncationTarget(d, frozenset(self.target_keep))

    def search_config(self) -> SearchConfig:
        return SearchConfig(seeds=self.seeds, max_iterations=self.max_iterations,
                            convergence_tol=self.convergence_tol,
                            random_seed=self.random_seed, fix_t3=self.fix_t3)

    @staticmethod
    def parse(text: str) -> "RunConfig":
        cfg = RunConfig()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            try:
                _assign(cfg, key, value)
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}, field {key!r}: {exc}") from exc
        return cfg

    def serialize(self) -> str:
        fmt = lambda x: repr(float(x))
        lines = [
            "T = " + ", ".join(fmt(t) for t in self.transmittances),
            "xi = " + ", ".join(fmt(x) for x in self.phases),
            f"mirror_zeta = {fmt(self.mirror_zeta)}",
            "fock_inputs = " + ", ".join(str(n) for n in self.fock_inputs),
            "counts = " + ", ".join(str(n) for n in self.counts),
            f"field_kind = {self.field_kind}",
            f"alpha = ({fmt(self.alpha.real)}, {fmt(self.alpha.imag)})",
            f"tail_epsilon = {fmt(self.tail_epsilon)}",
        ]
        if self.gammas:
            lines.append("gammas = " + ", ".join(
                f"({fmt(g.real)}, {fmt(g.imag)})" for g in self.gammas))
        if self.target_keep is not None:
            lines.append("target_keep = " + ", ".join(str(k) for k in self.target_keep))
        for label in ("c", "s", "r"):
            lines.append(f"eta_{label} = {fmt(self.eta[label])}")
            lines.append(f"r_dark_{label} = {fmt(self.r_dark[label])}")
        lines += [
            f"tau_res = {fmt(self.tau_res)}",
            f"seeds = {self.seeds}",
            f"max_iterations = {self.max_iterations}",
            f"convergence_tol = {fmt(self.convergence_tol)}",
            f"random_seed = {self.random_seed}",
        ]
        if self.fix_t3 is not None:
            lines.append(f"fix_t3 = {fmt(self.fix_t3)}")
        return "\n".join(lines) + "\n"


def _assign(cfg: RunConfig, key: str, value: str):
    if key == "T":
        vals = [eval_number(v) for v in _split_top_level(value)]
        if len(vals) != 5:
            raise ConfigError(f"expected 5 transmittances, got {len(vals)}")
        cfg.transmittances = tuple(vals)
    elif key == "xi":
        vals = [eval_number(v) for v in _split_top_level(value)]
        if len(vals) != 6:
            raise ConfigError(f"expected 6 phases, got {len(vals)}")
        cfg.phases = tuple(vals)
    elif key == "mirror_zeta":
        cfg.mirror_zeta = eval_number(value)
    elif key in ("fock_inputs", "counts"):
        vals = tuple(eval_integer(v) for v in _split_top_level(value))
        if len(vals) != 3:
            raise ConfigError(f"expected 3 entries, got {len(vals)}")
        setattr(cfg, key, vals)
    elif key == "field_kind":
        cfg.field_kind = value
    elif key == "alpha":
        cfg.alpha = parse_complex(value)
    elif key == "tail_epsilon":
        cfg.tail_epsilon = eval_number(value)
    elif key == "gammas":
        cfg.gammas = tuple(parse_complex(v) for v in _split_top_level(value))
    elif key == "target_keep":
        cfg.target_keep = tuple(eval_integer(v) for v in _split_top_level(value))
    elif key.startswith("eta_") and key[4:] in ("c", "s", "r"):
        cfg.eta[key[4:]] = eval_number(value)
    elif key.startswith("r_dark_") and key[7:] in ("c", "s", "r"):
        cfg.r_dark[key[7:]] = eval_number(value)
    elif key == "tau_res":
        cfg.tau_res = eval_number(value)
    elif key in ("seeds", "max_iterations", "random_seed"):
        setattr(cfg, key, eval_integer(value))
    elif key == "convergence_tol":
        cfg.convergence_tol = eval_number(value)
    elif key == "fix_t3":
        cfg.fix_t3 = eval_number(value)
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


# --- output helpers ---------------------------------------------------------

def _sig(x, digits=12):
    return f"{x:.{digits}g}"


def _emit(path, fmt, rows, header):
    """Write structured output rows (CSV or key = value text)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_sig(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        lines = []
        for row in rows:
            lines.append("; ".join(f"{h} = {_sig(v) if isinstance(v, float) else v}"
                                   for h, v in zip(header, row)))
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# --- subcommands ------------------------------------------------------------

def cmd_matrix(cfg: RunConfig, args) -> int:
    s = gqsd_matrix(cfg.spec())
    residual = float(np.max(np.abs(s.conj().T @ s - np.eye(4))))
    print("total scattering matrix S:")
    for row in s:
        print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    print(f"unitarity residual max|S^H S - I| = {residual:.3e}")
    rows = [(i + 1, j + 1, float(s[i, j].real), float(s[i, j].imag))
            for i in range(4) for j in range(4)]
    _emit(args.out, args.format, rows, ("row", "col", "re", "im"))
    return 0


def cmd_truncate(cfg: RunConfig, args) -> int:
    spec, event, target = cfg.spec(), cfg.event(), cfg.target()
    c = conditional_amplitudes(spec, event)
    defect = truncation_defect(c, target)  # the same with or without the global phase
    print(f"d = {c.d}; retained indices {sorted(target.keep)}")
    for n, cn in enumerate(c.c):
        print(f"  c_{n} = {cn.real:+.6f}{cn.imag:+.6f}j  (|c_{n}| = {abs(cn):.6f})")
    print(f"defect (raw)            = {defect:.6e}")
    print(f"defect (phase-quotient) = {defect:.6e}")
    nonzero = [n for n, cn in enumerate(c.c) if abs(cn) > 1e-10]
    if len(nonzero) == 1:
        print(f"Fock synthesis |{nonzero[0]}> flagged (single nonzero amplitude)")
    try:
        qudit, probability = _heralded_qudit(c, event, cfg.field())
    except ZeroProbabilityError as exc:
        print(f"zero-probability outcome: {exc}")
        return 0
    for n, g in enumerate(qudit.coeffs):
        print(f"  out_{n} = {g.real:+.6f}{g.imag:+.6f}j")
    print(f"success probability = {probability:.6e}")
    rows = [(n, float(cn.real), float(cn.imag), float(qudit.coeffs[n].real),
             float(qudit.coeffs[n].imag)) for n, cn in enumerate(c.c)]
    rows.append(("probability", probability, defect, defect, 0.0))
    _emit(args.out, args.format, rows, ("n", "c_re", "c_im", "out_re", "out_im"))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    results = catalog_mod.verify_catalog()
    width = max(len(r.name) for r in results)
    failures = 0
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  defect={r.defect:.3e}  "
              f"suppressed={r.suppressed_max:.3e}  |c|={r.amplitude:.6f}")
        rows.append((r.name, status, r.defect, r.suppressed_max, r.amplitude))
    print(f"{len(results) - failures}/{len(results)} catalog entries pass")
    _emit(args.out, args.format, rows,
          ("entry", "status", "defect", "suppressed_max", "amplitude"))
    return 1 if failures else 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    records = optimize(cfg.event(), cfg.target(), cfg.search_config(),
                       seed_specs=[cfg.spec()] if args.seed_from_config else ())
    print(f"{len(records)} distinct solutions with defect < "
          f"{cfg.convergence_tol:g}")
    rows = []
    for i, rec in enumerate(records):
        t = ", ".join(f"{v:.6f}" for v in rec.spec.transmittances)
        x = ", ".join(f"{v:.6f}" for v in rec.spec.phases)
        print(f"  #{i}: |c| = {rec.amplitude:.6f}, defect = {rec.defect:.2e}")
        print(f"      T  = [{t}]")
        print(f"      xi = [{x}]")
        rows.append((i, rec.amplitude, rec.defect)
                    + tuple(float(v) for v in rec.spec.transmittances)
                    + tuple(float(v) for v in rec.spec.phases))
    _emit(args.out, args.format, rows,
          ("rank", "amplitude", "defect", "T1", "T2", "T3", "T4", "T5",
           "xi1", "xi2", "xi3", "xi4", "xi5", "xi6"))
    return 0


def cmd_fidelity(cfg: RunConfig, args) -> int:
    """F = <ideal| rho |ideal> for conventional, single-photon and number-resolving detectors.

    The heralded output is built once as per-t blocks of the sector arrays
    (``detected_blocks``) and contracted with each kind's POVM
    (``heralded_density_matrix``); no full output state is assembled.
    """
    spec, event = cfg.spec(), cfg.event()
    field = cfg.field()
    ideal, _ = truncate(spec, event, field)  # a vanishing outcome stops here, before the sectors
    blocks = detected_blocks(gqsd_matrix(spec), event.fock_inputs, field.gammas)
    rows = []
    for label, kind in (("c", CONVENTIONAL), ("s", SINGLE_PHOTON),
                        ("r", NUMBER_RESOLVING)):
        nu = nu_from_dark_rate(cfg.r_dark[label], cfg.tau_res)
        models = [DetectorModel(kind, cfg.eta[label], nu)] * 3
        outcomes = [outcome_for_count(kind, n) for n in event.counts]
        rho, probability = heralded_density_matrix(blocks, models, outcomes)
        f = fidelity(rho, ideal)
        print(f"F_{label} = {f:.6f}  (eta = {cfg.eta[label]}, nu = {nu:.3e}, "
              f"outcome probability = {probability:.6e})")
        rows.append((label, float(cfg.eta[label]), float(nu), float(f),
                     float(probability)))
    _emit(args.out, args.format, rows,
          ("kind", "eta", "nu", "fidelity", "probability"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscissors",
        description="Eight-port quantum scissors: truncation, design search, "
                    "detector fidelities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("matrix", cmd_matrix), ("truncate", cmd_truncate),
                       ("verify", cmd_verify), ("optimize", cmd_optimize),
                       ("fidelity", cmd_fidelity)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a flat key = value config file")
        p.add_argument("--out", help="write structured output to this path")
        p.add_argument("--format", choices=("csv", "text"), default="text")
        p.add_argument("--seed", type=int, help="override the search random seed")
        if name == "optimize":
            p.add_argument("--seed-from-config", action="store_true",
                           help="use the config's device as the first start")
        p.set_defaults(func=func)
    parser.set_defaults(seed_from_config=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.parse(fh.read())
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg.random_seed = args.seed
        return args.func(cfg, args)
    except (OSError, ValueError, ZeroProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
