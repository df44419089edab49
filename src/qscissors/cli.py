"""Command line: ``qscissors {matrix,truncate,verify,optimize,fidelity} [options]``.

Every command reads the same flat ``key = value`` configuration (keys: ``_KEYS``).
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import math
import sys
from dataclasses import dataclass

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
    """Evaluate an int/float expression like '1/3', 'pi/2' or '(3-sqrt(3))/6'."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"disallowed expression in {text!r}")
        if isinstance(node, ast.Constant) and type(node.value) not in (int, float):
            raise ConfigError(f"disallowed constant {node.value!r} in {text!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
            raise ConfigError(f"unknown symbol {node.id!r} in {text!r}")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_NAMES
                    or len(node.args) != 1 or node.keywords):
                raise ConfigError(f"disallowed call in {text!r}")
    try:
        return float(eval(compile(tree, "<config>", "eval"), {"__builtins__": {}},
                          _ALLOWED_NAMES))
    except (ZeroDivisionError, OverflowError, ValueError, TypeError) as exc:
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


# --- the configuration keys -------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _fmt_complex(z) -> str:
    return f"({_fmt(z.real)}, {_fmt(z.imag)})"


def _list(read, count=None, what="entries"):
    """Reader of a comma-separated list; ``count`` fixes its length."""
    def reader(value):
        vals = tuple(read(v) for v in _split_top_level(value))
        if count is not None and len(vals) != count:
            raise ConfigError(f"expected {count} {what}, got {len(vals)}")
        return vals
    return reader


def _joined(write):
    return lambda vals: ", ".join(write(v) for v in vals)


_NUMBER = (eval_number, _fmt)
_WHOLE = (eval_integer, str)

# key -> (RunConfig attribute, reader, writer), in serialized order. Unset
# (None) values and keys whose writer returns None are not serialized.
_KEYS = {
    "T": ("transmittances", _list(eval_number, 5, "transmittances"), _joined(_fmt)),
    "xi": ("phases", _list(eval_number, 6, "phases"), _joined(_fmt)),
    "mirror_zeta": ("mirror_zeta", *_NUMBER),
    "fock_inputs": ("fock_inputs", _list(eval_integer, 3), _joined(str)),
    "counts": ("counts", _list(eval_integer, 3), _joined(str)),
    "field_kind": ("field_kind", str, str),
    "alpha": ("alpha", parse_complex, _fmt_complex),
    "tail_epsilon": ("tail_epsilon", *_NUMBER),
    "gammas": ("gammas", _list(parse_complex),
               lambda gammas: _joined(_fmt_complex)(gammas) or None),
    "target_keep": ("target_keep", _list(eval_integer), _joined(str)),
    **{key: (key, *_NUMBER) for label in "csr" for key in (f"eta_{label}", f"r_dark_{label}")},
    "tau_res": ("tau_res", *_NUMBER),
    "seeds": ("seeds", *_WHOLE),
    "max_iterations": ("max_iterations", *_WHOLE),
    "convergence_tol": ("convergence_tol", *_NUMBER),
    "random_seed": ("random_seed", *_WHOLE),
    "fix_t3": ("fix_t3", eval_number, _fmt),
}


@dataclass
class RunConfig:
    """Flat key-value run configuration; ``_KEYS`` maps each key to a field."""

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
    # detector efficiency and dark-count rate (1/s): conventional, single-photon, number
    eta_c: float = 0.7
    r_dark_c: float = 100.0
    eta_s: float = 0.88
    r_dark_s: float = 1e4
    eta_r: float = 0.88
    r_dark_r: float = 1e4
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
                if key not in _KEYS:
                    raise ConfigError(f"unknown configuration key {key!r}")
                attribute, read, _ = _KEYS[key]
                setattr(cfg, attribute, read(value))
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}, field {key!r}: {exc}") from exc
        return cfg

    def serialize(self) -> str:
        lines = []
        for key, (attribute, _, write) in _KEYS.items():
            value = getattr(self, attribute)
            text = None if value is None else write(value)
            if text is not None:
                lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


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


# --- commands ---------------------------------------------------------------

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
    for label, kind, eta, r_dark in (("c", CONVENTIONAL, cfg.eta_c, cfg.r_dark_c),
                                     ("s", SINGLE_PHOTON, cfg.eta_s, cfg.r_dark_s),
                                     ("r", NUMBER_RESOLVING, cfg.eta_r, cfg.r_dark_r)):
        nu = nu_from_dark_rate(r_dark, cfg.tau_res)
        models = [DetectorModel(kind, eta, nu)] * 3
        outcomes = [outcome_for_count(kind, n) for n in event.counts]
        rho, probability = heralded_density_matrix(blocks, models, outcomes)
        f = fidelity(rho, ideal)
        print(f"F_{label} = {f:.6f}  (eta = {eta}, nu = {nu:.3e}, "
              f"outcome probability = {probability:.6e})")
        rows.append((label, float(eta), float(nu), float(f), float(probability)))
    _emit(args.out, args.format, rows,
          ("kind", "eta", "nu", "fidelity", "probability"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscissors",
        description="Eight-port quantum scissors: truncation, design search, "
                    "detector fidelities.")
    parser.add_argument("command", choices=("matrix", "truncate", "verify",
                                            "optimize", "fidelity"))
    parser.add_argument("--config", help="path to a flat key = value config file")
    parser.add_argument("--out", help="write structured output to this path")
    parser.add_argument("--format", choices=("csv", "text"), default="text")
    parser.add_argument("--seed", type=int, help="override the search random seed")
    parser.add_argument("--seed-from-config", action="store_true",
                        help="optimize only: use the config's device as the first start")
    return parser


def main(argv=None) -> int:
    # Looked up on every call, so a rebound module attribute (a tracing
    # wrapper, a test double) is the one that runs.
    commands = {"matrix": cmd_matrix, "truncate": cmd_truncate, "verify": cmd_verify,
                "optimize": cmd_optimize, "fidelity": cmd_fidelity}
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_from_config and args.command != "optimize":
        parser.error("--seed-from-config applies to optimize only")
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.parse(fh.read())
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg.random_seed = args.seed
        return commands[args.command](cfg, args)
    except (OSError, ValueError, ZeroProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
