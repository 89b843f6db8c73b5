"""Command-line driver.

Exit codes: 0 success, 1 acceptance failure, 2 usage/config error,
3 I/O error, 4 protocol/transport error.
"""

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import costmodel, nas, tensorio
from .nn import (AdapterConfig, ConfigMismatchError, derived_rng,
                 inference_party, pipeline_forward_float, private_inference,
                 random_features, random_weights, weights_to_float)
from .ring import DEFAULT_CONFIG, FixedPointConfig, FixedTensor
from .runtime import (ENVS, WAN, ChannelError, MeterSummary, NetworkEnv,
                      merge_meters, simulate_latency, tcp_channel)

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4


class ConfigError(ValueError):
    pass


_SECTIONS = {
    "fixed_point": {"frac_bits"},
    "adapter": {"h", "r", "s", "scaler", "d_model", "n_tokens", "n_classes"},
    "env": {"label", "bandwidth_mbps", "latency_ms"},
    "paths": {"weights_dir", "features_file", "utility_table", "output_dir"},
}


@dataclass
class RunConfig:
    adapter: AdapterConfig
    fixed: FixedPointConfig
    env: NetworkEnv
    paths: dict
    seed: int

    @classmethod
    def parse(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(_SECTIONS) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section, allowed in _SECTIONS.items():
            bad = set(doc.get(section, {})) - allowed
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
        try:
            adapter = AdapterConfig(**doc.get("adapter", {}))
            fixed = FixedPointConfig(**doc.get("fixed_point", {}))
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        env_doc = doc.get("env")
        if env_doc:
            label = env_doc.get("label", "custom")
            if "bandwidth_mbps" in env_doc or "latency_ms" in env_doc:
                # A figure left out keeps its WAN value.
                bandwidth_mbps = env_doc.get("bandwidth_mbps", WAN.bandwidth_bps / 1e6)
                latency_ms = env_doc.get("latency_ms", WAN.latency_s / 1e-3)
                env = NetworkEnv(label, bandwidth_mbps * 1e6, latency_ms * 1e-3)
            elif label in ENVS:
                env = ENVS[label]
            else:
                raise ConfigError(f"unknown env label {label!r}")
        else:
            env = WAN
        return cls(adapter=adapter, fixed=fixed, env=env,
                   paths=doc.get("paths", {}), seed=int(doc.get("seed", 0)))


def load_run_config(path, seed_override=None) -> RunConfig:
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    else:
        doc = {}
    rc = RunConfig.parse(doc)
    if seed_override is not None:
        rc.seed = seed_override
    return rc


def _emit(ctx_obj, doc: dict, human_lines):
    if ctx_obj.get("json"):
        click.echo(json.dumps(doc, indent=2, default=_jsonable))
    else:
        for line in human_lines:
            click.echo(line)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run-configuration JSON file.")
@click.option("--seed", type=int, default=None, help="Override the seed.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
@click.pass_context
def main(ctx, config_path, seed, as_json):
    """Two-party private inference engine for adapter pipelines."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["seed"] = seed
    ctx.obj["json"] = as_json


def _run_config(ctx) -> RunConfig:
    try:
        return load_run_config(ctx.obj["config_path"], ctx.obj["seed"])
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(EXIT_USAGE)


def _load_features(path, cfg) -> list:
    arr = tensorio.load_tensor_file(path, dtype="f32")
    if arr.ndim == 2:
        arr = arr[None, ...]
    if arr.ndim != 3:
        raise tensorio.TensorFormatError(
            f"features must be rank 2 or 3, got rank {arr.ndim}")
    return [tensorio.tensor_as_fixed(a, "f32", cfg) for a in arr]


@main.command()
@click.option("--role", type=click.Choice(["0", "1"]), default=None,
              help="TCP party role; omit for in-process mode.")
@click.option("--addr", default="127.0.0.1:9631", help="TCP host:port.")
@click.pass_context
def infer(ctx, role, addr):
    """Run private inference over the configured weights and features."""
    rc = _run_config(ctx)
    cfg, config = rc.fixed, rc.adapter

    weights_dir = rc.paths.get("weights_dir")
    features_file = rc.paths.get("features_file")

    def need(path, what):
        if not path:
            click.echo(f"config error: paths.{what} is required for infer",
                       err=True)
            sys.exit(EXIT_USAGE)
        if not Path(path).exists():
            click.echo(f"io error: {what} not found: {path}", err=True)
            sys.exit(EXIT_IO)

    try:
        if role is None or role == "1":
            need(weights_dir, "weights_dir")
            weights, _ = tensorio.load_weights_dir(weights_dir, cfg)
        if role is None or role == "0":
            need(features_file, "features_file")
            features = _load_features(features_file, cfg)
    except (OSError, tensorio.TensorFormatError) as e:
        click.echo(f"io error: {e}", err=True)
        sys.exit(EXIT_IO)

    t0 = time.perf_counter()
    try:
        if role is None:
            result, meters = private_inference(config, weights, features,
                                               rc.seed, cfg)
            meter = meters[0]
            total = merge_meters(*meters)
        else:
            pid = int(role)
            host, port = addr.rsplit(":", 1)
            channel = tcp_channel(pid, host, int(port))
            proto = inference_party(
                pid, config, rc.seed,
                weights=weights if pid == 1 else None,
                features=features if pid == 0 else None, cfg=cfg)
            result = proto(channel)
            meter = channel.meter
            total = None
    except ConfigMismatchError as e:
        click.echo(f"protocol error: {e}", err=True)
        sys.exit(EXIT_PROTOCOL)
    except (ChannelError, OSError) as e:
        click.echo(f"transport error: {e}", err=True)
        sys.exit(EXIT_PROTOCOL)
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
@click.option("--inputs", "n_inputs", type=int, default=100, show_default=True)
@click.option("--tolerance", type=float, default=1e-2, show_default=True)
@click.option("--agreement", type=float, default=0.98, show_default=True)
@click.pass_context
def verify(ctx, n_inputs, tolerance, agreement):
    """Check the private pipeline against the float64 reference."""
    rc = _run_config(ctx)
    cfg, config = rc.fixed, rc.adapter
    wrng = derived_rng(rc.seed, "weights")
    weights = random_weights(config, wrng, cfg)
    irng = derived_rng(rc.seed, "inputs")
    features = [random_features(config, irng, cfg) for _ in range(n_inputs)]

    result, _ = private_inference(config, weights, features, rc.seed, cfg)
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
        sys.exit(EXIT_FAIL)


@main.command()
@click.pass_context
def estimate(ctx):
    """Closed-form latency and traffic estimates for the configured adapter."""
    rc = _run_config(ctx)
    config = rc.adapter
    comm, comp, total = costmodel.estimate_latency(config)
    doc = {
        "config": {"h": config.h, "r": config.r, "s": config.s},
        "rounds": costmodel.estimate_rounds(config),
        "comm_gb": costmodel.estimate_comm_gb(config),
        "wan_comm_time_s": comm,
        "wan_comp_time_s": comp,
        "wan_total_time_s": total,
        "source": "published WAN cost-model coefficients",
    }
    lines = [
        f"config (h={config.h}, r={config.r}, s={config.s})",
        f"rounds: {doc['rounds']}",
        f"traffic: {doc['comm_gb']:.4f} GB  [published linear model]",
        f"WAN latency: {total:.2f} s (comm {comm:.2f} + comp {comp:.2f})"
        "  [published linear model]",
    ]
    _emit(ctx.obj, doc, lines)


@main.command()
@click.option("--grid", default="1,2:4,8:1,2",
              help="h values : r values : s values, comma separated.",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="CSV file for the profile samples.")
@click.pass_context
def profile(ctx, grid, out_path):
    """Profile the real engine over a config grid and save samples."""
    rc = _run_config(ctx)
    try:
        hs, rs, ss = ([int(v) for v in part.split(",")]
                      for part in grid.split(":"))
    except ValueError:
        click.echo(f"usage error: bad --grid {grid!r}", err=True)
        sys.exit(EXIT_USAGE)
    base = rc.adapter
    configs = []
    for s in ss:
        for h in hs:
            for r in rs:
                if r % h:
                    continue
                configs.append(AdapterConfig(
                    h=h, r=r, s=s, scaler=base.scaler, d_model=base.d_model,
                    n_tokens=base.n_tokens, n_classes=base.n_classes))
    samples = costmodel.profile_pipeline(configs, rc.env, seed=rc.seed,
                                         cfg=rc.fixed)
    costmodel.save_samples_csv(out_path, samples)
    doc = {"samples": len(samples), "out": str(out_path)}
    _emit(ctx.obj, doc, [f"profiled {len(samples)} configs -> {out_path}"])


@main.command()
@click.option("--samples", "samples_path", type=click.Path(), required=True)
@click.option("--env-label", default="custom", show_default=True)
@click.pass_context
def fit(ctx, samples_path, env_label):
    """Fit the affine cost model to profiled samples."""
    if not Path(samples_path).exists():
        click.echo(f"io error: samples file not found: {samples_path}", err=True)
        sys.exit(EXIT_IO)
    samples = costmodel.load_samples_csv(samples_path)
    try:
        coeffs, r2_comm, r2_comp = costmodel.fit_cost_model(samples, env_label)
    except costmodel.UnderDeterminedError as e:
        click.echo(f"fit error: {e}", err=True)
        sys.exit(EXIT_USAGE)
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
@click.option("--heads", default="1,2,4", show_default=True)
@click.option("--ranks", default="4,8,12,16", show_default=True)
@click.option("--s-max", type=int, default=3, show_default=True)
@click.option("--exhaustive", is_flag=True,
              help="Deterministic controller that cycles all valid pairs.")
@click.option("--brute-force", is_flag=True, help="Run the exhaustive oracle.")
@click.option("--evaluator-cmd", default=None,
              help="External utility command (receives --h --r --s).")
@click.option("--max-samples", type=int, default=None)
@click.pass_context
def search(ctx, utility_target, latency_target, patience, heads, ranks,
           s_max, exhaustive, brute_force, evaluator_cmd, max_samples):
    """Latency-constrained search for (h, r, s)."""
    rc = _run_config(ctx)
    try:
        space = nas.SearchSpace(
            heads=tuple(int(v) for v in heads.split(",")),
            ranks=tuple(int(v) for v in ranks.split(",")),
            s_max=s_max)
        targets = nas.SearchTargets(utility=utility_target,
                                    latency_s=latency_target,
                                    patience=patience)
    except ValueError as e:
        click.echo(f"usage error: {e}", err=True)
        sys.exit(EXIT_USAGE)

    if evaluator_cmd:
        evaluator = nas.CommandEvaluator(evaluator_cmd.split())
    else:
        table = rc.paths.get("utility_table", nas.DEMO_TABLE)
        if not Path(table).exists():
            click.echo(f"io error: utility table not found: {table}", err=True)
            sys.exit(EXIT_IO)
        evaluator = nas.TableEvaluator.from_csv(table)

    latency_fn = nas.latency_model_fn(costmodel.PUBLISHED_WAN)
    try:
        if brute_force:
            result = nas.brute_force_search(targets, latency_fn, space, evaluator)
        elif exhaustive:
            controller = nas.ExhaustiveController(
                space.valid_pairs(), order_key=lambda p: latency_fn(p[0], p[1], 1))
            result = nas.nas_search(targets, latency_fn, space, evaluator,
                                    controller=controller,
                                    max_samples=max_samples)
        else:
            result = nas.nas_search(targets, latency_fn, space, evaluator,
                                    seed=rc.seed, max_samples=max_samples)
    except nas.EvaluatorError as e:
        click.echo(f"evaluator error: {e}", err=True)
        sys.exit(EXIT_USAGE)

    if not result.feasible:
        _emit(ctx.obj, {"feasible": False}, ["no feasible config"])
        sys.exit(EXIT_FAIL)
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


@main.command()
@click.pass_context
def report(ctx):
    """Compare the configured adapter against the published full-model
    fine-tuning baseline."""
    rc = _run_config(ctx)
    config = rc.adapter
    rounds = costmodel.estimate_rounds(config)
    gb = costmodel.estimate_comm_gb(config)
    comm, comp, total = costmodel.estimate_latency(config)
    base = costmodel.SFT_BASELINE
    doc = {
        "config": {"h": config.h, "r": config.r, "s": config.s},
        "rounds": rounds,
        "comm_gb": gb,
        "wan_latency_s": total,
        "baseline": base,
        "round_speedup": base["rounds"] / rounds,
        "traffic_ratio": base["comm_gb"] / gb,
        "latency_speedup": base["wan_total_time_s"] / total,
        "source": "baseline and coefficients are published measurements",
    }
    lines = [
        f"{'':24}{'adapter':>12}{'baseline':>12}{'ratio':>10}",
        f"{'comm rounds':24}{rounds:>12}{base['rounds']:>12}"
        f"{doc['round_speedup']:>9.2f}x",
        f"{'traffic (GB)':24}{gb:>12.2f}{base['comm_gb']:>12.2f}"
        f"{doc['traffic_ratio']:>9.1f}x",
        f"{'WAN latency (s)':24}{total:>12.2f}{base['wan_total_time_s']:>12.2f}"
        f"{doc['latency_speedup']:>9.2f}x",
        "baseline figures and model coefficients are published measurements",
    ]
    _emit(ctx.obj, doc, lines)


if __name__ == "__main__":
    main()
