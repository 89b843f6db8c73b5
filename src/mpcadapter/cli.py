"""Command-line driver.

Exit codes: 0 success, 1 acceptance failure (``verify`` FAIL, ``search``
with no feasible config), 2 usage or config error, 3 I/O error, 4 protocol
or transport error.  Commands raise; ``FAILURES`` maps each outside-input
and peer failure to its exit code and message prefix.
"""

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import click
import numpy as np

from . import costmodel, nas, tensorio
from .nn import (AdapterConfig, ConfigMismatchError, PartyInputError,
                 derived_rng, inference_party, pipeline_forward_float,
                 private_inference, random_features, random_weights,
                 weights_to_float)
from .runtime import (ENVS, WAN, ChannelError, NetworkEnv, check_fields,
                      merge_meters, simulate_latency, tcp_channel)


class ConfigError(ValueError):
    pass


@dataclass
class _EnvFigures:
    """An ``env`` section's figures as the config writes them; a figure left
    out keeps its WAN value."""
    label: str = "custom"
    bandwidth_mbps: float = field(default=WAN.bandwidth_bps / 1e6, metadata={">": 0})
    latency_ms: float = field(default=WAN.latency_s / 1e-3, metadata={">=": 0})
    __post_init__ = check_fields


_SECTIONS = {
    "adapter": {f.name for f in fields(AdapterConfig)},
    "env": {f.name for f in fields(_EnvFigures)},
    "paths": {"weights_dir", "features_file", "utility_table", "output_dir"},
}


@dataclass
class RunConfig:
    adapter: AdapterConfig
    env: NetworkEnv
    paths: dict
    seed: int = field(metadata={">=": 0})
    __post_init__ = check_fields

    @classmethod
    def parse(cls, doc: dict) -> "RunConfig":
        """The run configuration a JSON document declares; anything
        malformed in it raises ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError("a run config is a JSON object")
        unknown = set(doc) - set(_SECTIONS) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section, allowed in _SECTIONS.items():
            body = doc.get(section, {})
            if not isinstance(body, dict):
                raise ConfigError(f"{section} must be an object, got {body!r}")
            bad = set(body) - allowed
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
        paths = doc.get("paths", {})
        bad = sorted(k for k, v in paths.items() if not isinstance(v, str))
        if bad:
            raise ConfigError(f"paths must be strings: {bad}")
        try:
            env_doc = doc.get("env", {})
            label = env_doc.get("label", "WAN")
            if env_doc.keys() & {"bandwidth_mbps", "latency_ms"}:
                e = _EnvFigures(**env_doc)
                env = NetworkEnv(e.label, e.bandwidth_mbps * 1e6, e.latency_ms * 1e-3)
            elif label in ENVS:
                env = ENVS[label]
            else:
                raise ConfigError(f"unknown env label {label!r}")
            return cls(adapter=AdapterConfig(**doc.get("adapter", {})), env=env,
                       paths=paths, seed=doc.get("seed", 0))
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None


def load_run_config(path, seed_override=None) -> RunConfig:
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except ValueError as e:  # not JSON, or an integer past int_max_str_digits
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    else:
        doc = {}
    rc = RunConfig.parse(doc)
    if seed_override is not None:
        rc.seed = seed_override
    return rc


def _emit(ctx_obj, doc: dict, human_lines):
    if ctx_obj.get("json"):
        click.echo(json.dumps(doc, indent=2))
    else:
        for line in human_lines:
            click.echo(line)


# The exit code and message prefix of each outside-input and peer failure.
FAILURES = {
    ConfigError: (2, "config error"),
    costmodel.UnderDeterminedError: (2, "fit error"),
    nas.EvaluatorError: (2, "evaluator error"),
    OSError: (3, "io error"),
    tensorio.TensorFormatError: (3, "io error"),
    costmodel.CsvFormatError: (3, "io error"),
    PartyInputError: (3, "io error"),
    ConfigMismatchError: (4, "protocol error"),
    ChannelError: (4, "transport error"),
}


class _Main(click.Group):
    """Exits each command's failure through ``FAILURES``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(FAILURES) as e:
            code, prefix = next(v for t, v in FAILURES.items() if isinstance(e, t))
            click.echo(f"{prefix}: {e}", err=True)
            ctx.exit(code)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run-configuration JSON file.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the seed.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
@click.pass_context
def main(ctx, config_path, seed, as_json):
    """Two-party private inference engine for adapter pipelines."""
    ctx.obj = {"config_path": config_path, "seed": seed, "json": as_json}


def _host_port(ctx, param, value) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdecimal() or not 0 < int(port) < 1 << 16:
        raise click.BadParameter(f"expected host:port with a port in 1..65535, "
                                 f"got {value!r}")
    return host, int(port)


def _int_lists(count: int):
    """A click callback parsing ``count`` colon-separated lists of
    comma-separated integers >= 1; one list comes back as a tuple."""
    def parse(ctx, param, value):
        try:
            lists = [tuple(int(v) for v in part.split(",")) for part in value.split(":")]
        except ValueError:
            lists = []
        if len(lists) != count or min(map(min, lists)) < 1:
            raise click.BadParameter(
                f"expected {count} list(s) of integers >= 1 split by ':', got {value!r}")
        return lists[0] if count == 1 else lists
    return parse


def _load_features(path) -> list:
    """A rank-3 file holds k features, any other file one;
    ``inference_party`` checks their shapes."""
    arr = tensorio.load_tensor_file(path, dtype="f32")
    return [tensorio.tensor_as_fixed(a) for a in (arr if arr.ndim == 3 else [arr])]


@main.command()
@click.option("--role", type=click.Choice(["0", "1"]), default=None,
              help="TCP party role; omit for in-process mode.")
@click.option("--addr", default="127.0.0.1:9631", callback=_host_port,
              help="TCP host:port.")
@click.pass_context
def infer(ctx, role, addr):
    """Run private inference over the configured weights and features."""
    rc = load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    config = rc.adapter

    def path(what):
        if not rc.paths.get(what):
            raise ConfigError(f"paths.{what} is required for infer")
        return rc.paths[what]

    weights = features = None
    if role != "0":
        weights, _ = tensorio.load_weights_dir(path("weights_dir"))
    if role != "1":
        features = _load_features(path("features_file"))

    t0, total = time.perf_counter(), None
    if role is None:
        result, meters = private_inference(config, weights, features, rc.seed)
        meter, total = meters[0], merge_meters(*meters)
    else:
        protocol = inference_party(int(role), config, rc.seed, weights, features)
        try:
            channel = tcp_channel(int(role), *addr)
            try:
                result = protocol(channel)
            finally:
                channel.end.close()
        except OSError as e:
            raise ChannelError(str(e)) from e
        meter = channel.meter
    wall = time.perf_counter() - t0

    report = {
        "rounds": meter.rounds,
        "bytes": meter.bytes_sent,
        "pipeline_rounds": result["pipeline_rounds"],
        "wall_comp_time": wall,
    }
    if "logits" in result:
        report["logits"] = [l.tolist() for l in result["logits"]]
        report["argmax"] = [int(np.argmax(l)) for l in result["logits"]]
    if total is not None:
        report["total_bytes"] = total.total_bytes
        report["simulated_comm_time"] = simulate_latency(total, rc.env)

    out_dir = rc.paths.get("output_dir")
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        suffix = "" if role is None else f"_party{role}"
        (Path(out_dir) / f"report{suffix}.json").write_text(
            json.dumps(report, indent=2))

    lines = [f"rounds: {report['rounds']}  bytes sent: {report['bytes']}"]
    if "argmax" in report:
        lines.append(f"argmax: {report['argmax']}")
    if "simulated_comm_time" in report:
        lines.append(f"simulated {rc.env.label} comm time: "
                     f"{report['simulated_comm_time']:.4f} s")
    lines.append(f"wall time: {wall:.3f} s")
    _emit(ctx.obj, report, lines)


@main.command()
@click.option("--inputs", "n_inputs", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--tolerance", type=float, default=1e-2, show_default=True)
@click.option("--agreement", type=float, default=0.98, show_default=True)
@click.pass_context
def verify(ctx, n_inputs, tolerance, agreement):
    """Check the private pipeline against the float64 reference."""
    rc = load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    config = rc.adapter
    weights = random_weights(config, derived_rng(rc.seed, "weights"))
    irng = derived_rng(rc.seed, "inputs")
    features = [random_features(config, irng) for _ in range(n_inputs)]

    result, _ = private_inference(config, weights, features, rc.seed)
    wf = weights_to_float(weights)
    max_err, agree, worst = 0.0, 0, -1
    for i, (feat, logits) in enumerate(zip(features, result["logits"])):
        ref = pipeline_forward_float(feat.to_real(), wf, config)
        err = float(np.max(np.abs(np.asarray(logits) - ref)))
        if err > max_err:
            max_err, worst = err, i
        agree += int(np.argmax(logits) == np.argmax(ref))
    rate = agree / n_inputs
    ok = max_err <= tolerance and rate >= agreement
    doc = {"max_abs_error": max_err, "argmax_agreement": rate,
           "inputs": n_inputs, "pass": ok}
    lines = [f"max abs logit error: {max_err:.3e} (tolerance {tolerance:g})",
             f"argmax agreement: {rate:.2%} over {n_inputs} inputs",
             "PASS" if ok else f"FAIL (worst input index {worst})"]
    _emit(ctx.obj, doc, lines)
    if not ok:
        ctx.exit(1)


@main.command()
@click.pass_context
def estimate(ctx):
    """Closed-form latency and traffic estimates for the configured adapter,
    against the published full-model fine-tuning baseline."""
    rc = load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    config = rc.adapter
    rounds = costmodel.estimate_rounds(config)
    gb = costmodel.estimate_comm_gb(config)
    comm, comp, total = costmodel.estimate_latency(config)
    base = costmodel.SFT_BASELINE
    doc = {
        "config": {"h": config.h, "r": config.r, "s": config.s},
        "rounds": rounds,
        "comm_gb": gb,
        "wan_comm_time_s": comm,
        "wan_comp_time_s": comp,
        "wan_total_time_s": total,
        "baseline": base,
        "round_speedup": base["rounds"] / rounds,
        "traffic_ratio": base["comm_gb"] / gb,
        "latency_speedup": base["wan_total_time_s"] / total,
        "source": "published WAN cost-model coefficients and baseline measurements",
    }
    lines = [
        f"config (h={config.h}, r={config.r}, s={config.s})",
        f"{'':24}{'adapter':>12}{'baseline':>12}{'ratio':>10}",
        f"{'comm rounds':24}{rounds:>12}{base['rounds']:>12}"
        f"{doc['round_speedup']:>9.2f}x",
        f"{'traffic (GB)':24}{gb:>12.4f}{base['comm_gb']:>12.2f}"
        f"{doc['traffic_ratio']:>9.1f}x",
        f"{'WAN latency (s)':24}{total:>12.2f}{base['wan_total_time_s']:>12.2f}"
        f"{doc['latency_speedup']:>9.2f}x",
        f"  of which comm / comp: {comm:.2f} / {comp:.2f} s",
        "baseline figures and model coefficients are published measurements",
    ]
    _emit(ctx.obj, doc, lines)


@main.command()
@click.option("--grid", default="1,2:4,8:1,2", callback=_int_lists(3),
              help="h values : r values : s values, comma separated.",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="CSV file for the profile samples.")
@click.pass_context
def profile(ctx, grid, out_path):
    """Profile the real engine over a config grid and save samples."""
    rc = load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    hs, rs, ss = grid
    configs = [replace(rc.adapter, h=h, r=r, s=s)
               for s in ss for h in hs for r in rs if r % h == 0]
    if not configs:
        raise click.UsageError("--grid has no rank divisible by a head count", ctx)
    samples = costmodel.profile_pipeline(configs, rc.env, seed=rc.seed)
    costmodel.save_samples_csv(out_path, samples)
    doc = {"samples": len(samples), "out": str(out_path)}
    _emit(ctx.obj, doc, [f"profiled {len(samples)} configs -> {out_path}"])


@main.command()
@click.option("--samples", "samples_path", type=click.Path(), required=True)
@click.option("--env-label", default="custom", show_default=True)
@click.pass_context
def fit(ctx, samples_path, env_label):
    """Fit the affine cost model to profiled samples."""
    samples = costmodel.load_samples_csv(samples_path)
    coeffs, r2_comm, r2_comp = costmodel.fit_cost_model(samples, env_label)
    doc = json.loads(coeffs.to_json(r2_comm, r2_comp))
    lines = [
        f"comm: ({coeffs.comm[0]:.5f} h + {coeffs.comm[1]:.5f} r + "
        f"{coeffs.comm[2]:.5f}) s + {coeffs.comm[3]:.5f}   R^2 {r2_comm:.4f}",
        f"comp: ({coeffs.comp[0]:.5f} h + {coeffs.comp[1]:.5f} r + "
        f"{coeffs.comp[2]:.5f}) s + {coeffs.comp[3]:.5f}   R^2 {r2_comp:.4f}",
    ]
    _emit(ctx.obj, doc, lines)


@main.command()
@click.option("--utility-target", type=float, default=0.85, show_default=True)
@click.option("--latency-target", type=float, default=2.0, show_default=True)
@click.option("--patience", type=int, default=50, show_default=True)
@click.option("--heads", default="1,2,4", callback=_int_lists(1), show_default=True)
@click.option("--ranks", default="4,8,12,16", callback=_int_lists(1),
              show_default=True)
@click.option("--s-max", type=int, default=3, show_default=True)
@click.option("--exhaustive", is_flag=True,
              help="Deterministic controller that cycles all valid pairs.")
@click.option("--brute-force", is_flag=True, help="Run the exhaustive oracle.")
@click.option("--evaluator-cmd", default=None,
              help="External utility command (receives --h --r --s).")
@click.option("--max-samples", type=click.IntRange(min=1), default=None)
@click.pass_context
def search(ctx, utility_target, latency_target, patience, heads, ranks,
           s_max, exhaustive, brute_force, evaluator_cmd, max_samples):
    """Latency-constrained search for (h, r, s)."""
    rc = load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    try:
        space = nas.SearchSpace(heads=heads, ranks=ranks, s_max=s_max)
        targets = nas.SearchTargets(utility=utility_target,
                                    latency_s=latency_target,
                                    patience=patience)
    except (TypeError, ValueError) as e:
        raise click.UsageError(str(e), ctx) from None

    if evaluator_cmd:
        evaluator = nas.CommandEvaluator(evaluator_cmd.split())
    else:
        evaluator = nas.TableEvaluator.from_csv(
            rc.paths.get("utility_table", nas.DEMO_TABLE))

    latency_fn = nas.latency_model_fn(costmodel.PUBLISHED_WAN)
    if brute_force:
        result = nas.brute_force_search(targets, latency_fn, space, evaluator)
    elif exhaustive:
        controller = nas.ExhaustiveController(
            space.valid_pairs(), order_key=lambda p: latency_fn(p[0], p[1], 1))
        result = nas.nas_search(targets, latency_fn, space, evaluator,
                                controller=controller, max_samples=max_samples)
    else:
        result = nas.nas_search(targets, latency_fn, space, evaluator,
                                seed=rc.seed, max_samples=max_samples)

    if not result.feasible:
        _emit(ctx.obj, {"feasible": False}, ["no feasible config"])
        ctx.exit(1)
    doc = {"h": result.h, "r": result.r, "s": result.s,
           "utility": result.utility, "samples": result.samples,
           "evaluations": len(result.evaluations), "feasible": True,
           "latency_s": latency_fn(result.h, result.r, result.s),
           "latency_source": "published WAN cost-model coefficients"}
    lines = [f"best config: h={result.h} r={result.r} s={result.s} "
             f"utility={result.utility:.4f}",
             f"modeled latency: {doc['latency_s']:.3f} s  "
             "[published linear model]",
             f"samples: {result.samples}  evaluations: {len(result.evaluations)}"]
    _emit(ctx.obj, doc, lines)


if __name__ == "__main__":
    main()
