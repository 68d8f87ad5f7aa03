//! Command parsing and execution, separated from `main` for testability.

use std::io::Write;

use cpssec_analysis::consequence::standard_analysis;
use cpssec_analysis::render::text_table;
use cpssec_analysis::{attribute_rows, render, report, AssociationMap, SystemPosture};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{delta_batch, stream_into, SynthSpec};
use cpssec_attackdb::Corpus;
use cpssec_model::{Fidelity, SystemModel};
use cpssec_scada::{
    attacks, faults, run_campaign, AttackClass, BatchReport, CampaignSpec, ScadaConfig,
    ScadaHarness,
};
use cpssec_search::{apply_delta, build_delta, compact_verified, inspect_delta};
use cpssec_search::{FilterPipeline, SearchEngine};
const USAGE: &str = "usage:
  cpssec table1 [--scale S] [--corpus FILE.jsonl]
  cpssec associate <model.graphml|scada> [--fidelity conceptual|architectural|implementation]
                   [--scale S] [--corpus FILE.jsonl] [--top K]
  cpssec figure [--scale S] [--corpus FILE.jsonl]
  cpssec report [--scale S] [--corpus FILE.jsonl] [--simulate]
  cpssec simulate <scenario|nominal> [--ticks N]
  cpssec fleet [--scenarios N] [--seed S] [--threads N] [--ticks N]
               [--classes a,b,c] [--json]
  cpssec campaign <scada|water> [--seed S] [--threads N] [--json] [--csv]
  cpssec scenarios
  cpssec export-model [--fidelity LEVEL]
  cpssec export-corpus [--scale S]
  cpssec json [--scale S] [--corpus FILE.jsonl] [--fidelity LEVEL]
  cpssec snapshot build <FILE.cpsnap> [--scale S] [--corpus FILE.jsonl]
  cpssec snapshot inspect <FILE.cpsnap> [--json]
  cpssec snapshot verify <FILE.cpsnap>
  cpssec delta build <PARENT.cpsnap|.cpsdelta> <OUT.cpsdelta>
                     [--records N] [--serial K] [--seed S]
  cpssec delta inspect <FILE.cpsdelta> [--json]
  cpssec delta apply <BASE.cpsnap> <FILE.cpsdelta>... [--out FILE.cpsnap]
  cpssec delta compact <BASE.cpsnap> <FILE.cpsdelta>... [--out FILE.cpsnap]
  cpssec serve [--addr HOST:PORT] [--workers N] [--scale S] [--corpus FILE.jsonl]
               [--snapshot FILE.cpsnap] [--slo FILE.toml] [--tick-ms N]
               [--max-conns N] [--queue-depth N]
  cpssec load [--addr HOST:PORT] [--clients N] [--requests M]
  cpssec profile [--hz N] [--flame FILE.json] <command> [args...]
  cpssec flight inspect <FILE.cpsflight>
  cpssec help

the corpus defaults to the built-in seed + synthetic corpus at --scale;
--corpus loads a JSON Lines corpus (see cpssec_attackdb::jsonl) instead;
--snapshot warm-starts `serve` from a binary snapshot (see `snapshot build`);
--slo loads latency/error objectives for `serve` (the CPSSEC_SLO env var
holds the same syntax with `;` for newlines); --tick-ms sets the telemetry
tick interval (default 1000); --max-conns caps concurrent connections and
--queue-depth bounds each route's outstanding requests (excess traffic is
shed with 429 + Retry-After, visible at /metrics as shed_total);
--trace FILE.json (any command) writes a Chrome trace of the pipeline
stages, viewable in Perfetto or chrome://tracing;
`associate scada` uses the built-in SCADA testbed model;
`fleet` runs a Monte-Carlo attack campaign on the centrifuge testbed —
deterministic per --seed at any --threads count; --classes restricts the
sampled attack classes (see `cpssec fleet --classes nope` for names);
`campaign` compiles the exploit chains matched against a testbed model
into multi-stage attack campaigns on the simulator and scores every
chain as reached-hazard, contained, or textual-only — deterministic per
--seed at any --threads count; --csv dumps the per-chain records;
`delta build` emits a synthetic `.cpsdelta` batch (deterministic per
--seed/--serial) chained onto the parent snapshot or delta; `delta apply`
grows a snapshot in place without an index rebuild, `delta compact`
additionally proves the grown snapshot byte-identical to a
rebuild-from-scratch before writing it;
`profile` runs any other cpssec command under the continuous sampling
profiler (default 99 Hz) and prints a top-stages self-time table;
--flame additionally writes a d3-flamegraph JSON of the sampled stacks;
`flight inspect` verifies a `.cpsflight` black-box dump (written by a
serving process on SLO alert, panic, SIGUSR1, or POST /debug/flight/dump)
and renders its per-thread event timeline.";

/// Parsed global options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Synthetic corpus scale.
    pub scale: f64,
    /// Fidelity for model-side operations.
    pub fidelity: Fidelity,
    /// Per-family result cap for `associate`.
    pub top: Option<usize>,
    /// Run the simulation inside `report`.
    pub simulate: bool,
    /// Tick budget for `simulate`.
    pub ticks: u64,
    /// Scenario count for `fleet`.
    pub scenarios: u64,
    /// Campaign seed for `fleet`.
    pub seed: u64,
    /// Worker threads for `fleet` (defaults to the core count).
    pub threads: Option<usize>,
    /// Comma-separated attack classes for `fleet`.
    pub classes: Option<String>,
    /// Emit the JSON artifact instead of the text table (`fleet`,
    /// `campaign`).
    pub json: bool,
    /// Emit the per-chain CSV records instead of the table (`campaign`).
    pub csv: bool,
    /// Path to a JSON Lines corpus replacing the built-in one.
    pub corpus_path: Option<String>,
    /// Path to a `.cpsnap` snapshot for `serve` warm start.
    pub snapshot_path: Option<String>,
    /// Path to an SLO config for `serve` (overrides `CPSSEC_SLO`).
    pub slo_path: Option<String>,
    /// Telemetry tick interval for `serve`, in milliseconds.
    pub tick_ms: Option<u64>,
    /// Concurrent-connection cap for `serve` (reactor backend).
    pub max_conns: Option<u64>,
    /// Per-route outstanding-request budget for `serve`.
    pub queue_depth: Option<u64>,
    /// Path to write a Chrome-trace JSON of the run's pipeline spans.
    pub trace_path: Option<String>,
    /// Bind/connect address for `serve` and `load`.
    pub addr: String,
    /// Worker threads for `serve`.
    pub workers: usize,
    /// Concurrent clients for `load`.
    pub clients: usize,
    /// Requests per client for `load`.
    pub requests: usize,
    /// Record count for `delta build`.
    pub records: usize,
    /// Batch serial for `delta build` (its append-only id block).
    pub serial: u32,
    /// Output path for `delta apply`/`delta compact` (defaults to the
    /// base snapshot, growing it in place).
    pub out_path: Option<String>,
    /// Positional arguments.
    pub positional: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.05,
            fidelity: Fidelity::Implementation,
            top: None,
            simulate: false,
            ticks: 12_000,
            scenarios: 200,
            seed: 42,
            threads: None,
            classes: None,
            json: false,
            csv: false,
            corpus_path: None,
            snapshot_path: None,
            slo_path: None,
            tick_ms: None,
            max_conns: None,
            queue_depth: None,
            trace_path: None,
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            clients: 4,
            requests: 16,
            records: 1_000,
            serial: 0,
            out_path: None,
            positional: Vec::new(),
        }
    }
}

/// Parses everything after the subcommand.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                options.scale = value
                    .parse()
                    .map_err(|_| format!("invalid scale `{value}`"))?;
                if options.scale <= 0.0 {
                    return Err("scale must be positive".into());
                }
            }
            "--fidelity" => {
                let value = iter.next().ok_or("--fidelity needs a value")?;
                options.fidelity = value
                    .parse()
                    .map_err(|_| format!("invalid fidelity `{value}`"))?;
            }
            "--top" => {
                let value = iter.next().ok_or("--top needs a value")?;
                options.top = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid top `{value}`"))?,
                );
            }
            "--ticks" => {
                let value = iter.next().ok_or("--ticks needs a value")?;
                options.ticks = value
                    .parse()
                    .map_err(|_| format!("invalid ticks `{value}`"))?;
            }
            "--simulate" => options.simulate = true,
            "--scenarios" => {
                let value = iter.next().ok_or("--scenarios needs a value")?;
                options.scenarios = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid scenarios `{value}`"))?;
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed needs a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed `{value}`"))?;
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads needs a value")?;
                options.threads = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid threads `{value}`"))?,
                );
            }
            "--classes" => {
                let value = iter.next().ok_or("--classes needs a value")?;
                options.classes = Some(value.clone());
            }
            "--json" => options.json = true,
            "--csv" => options.csv = true,
            "--corpus" => {
                let value = iter.next().ok_or("--corpus needs a path")?;
                options.corpus_path = Some(value.clone());
            }
            "--snapshot" => {
                let value = iter.next().ok_or("--snapshot needs a path")?;
                options.snapshot_path = Some(value.clone());
            }
            "--slo" => {
                let value = iter.next().ok_or("--slo needs a path")?;
                options.slo_path = Some(value.clone());
            }
            "--tick-ms" => {
                let value = iter.next().ok_or("--tick-ms needs a value")?;
                options.tick_ms = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid tick-ms `{value}`"))?,
                );
            }
            "--max-conns" => {
                let value = iter.next().ok_or("--max-conns needs a value")?;
                options.max_conns = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid max-conns `{value}`"))?,
                );
            }
            "--queue-depth" => {
                let value = iter.next().ok_or("--queue-depth needs a value")?;
                options.queue_depth = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid queue-depth `{value}`"))?,
                );
            }
            "--trace" => {
                let value = iter.next().ok_or("--trace needs a path")?;
                options.trace_path = Some(value.clone());
            }
            "--addr" => {
                let value = iter.next().ok_or("--addr needs a HOST:PORT value")?;
                options.addr = value.clone();
            }
            "--workers" => {
                let value = iter.next().ok_or("--workers needs a value")?;
                options.workers = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid workers `{value}`"))?;
            }
            "--clients" => {
                let value = iter.next().ok_or("--clients needs a value")?;
                options.clients = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid clients `{value}`"))?;
            }
            "--requests" => {
                let value = iter.next().ok_or("--requests needs a value")?;
                options.requests = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid requests `{value}`"))?;
            }
            "--records" => {
                let value = iter.next().ok_or("--records needs a value")?;
                options.records = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0 && n <= 10_000)
                    .ok_or_else(|| format!("invalid records `{value}` (expected 1..=10000)"))?;
            }
            "--serial" => {
                let value = iter.next().ok_or("--serial needs a value")?;
                options.serial = value
                    .parse::<u32>()
                    .map_err(|_| format!("invalid serial `{value}`"))?;
            }
            "--out" => {
                let value = iter.next().ok_or("--out needs a path")?;
                options.out_path = Some(value.clone());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            positional => options.positional.push(positional.to_owned()),
        }
    }
    Ok(options)
}

fn corpus_at(scale: f64) -> Result<Corpus, String> {
    let mut corpus = seed_corpus();
    // Streaming generation: byte-identical to generate-then-merge but
    // never builds a second corpus, so `snapshot build --scale 30` stays
    // in bounded memory at the ~1M-record mark.
    stream_into(&mut corpus, &SynthSpec::paper2020(2020, scale))
        .map_err(|e| format!("cannot merge synthetic corpus: {e}"))?;
    Ok(corpus)
}

fn load_corpus(options: &Options) -> Result<Corpus, String> {
    match &options.corpus_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            cpssec_attackdb::jsonl::from_jsonl(&text)
                .map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
        None => corpus_at(options.scale),
    }
}

/// Executes a full command line; output goes to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command (run `cpssec help` for usage)".into());
    };
    // `profile` wraps another full command line, so it owns its own flag
    // parsing and recurses into `run` with the remainder.
    if command == "profile" {
        return cmd_profile(rest, out);
    }
    let options = parse_options(rest)?;
    if options.trace_path.is_some() {
        let recorder = cpssec_obs::recorder();
        recorder.enable_spans();
        recorder.enable_trace();
        // A root trace id for the whole batch run, so every span in the
        // exported Chrome trace groups under one id (the server mints
        // per-request ids instead).
        cpssec_obs::set_trace_id(cpssec_obs::mint_trace_id());
    }
    let result = match command.as_str() {
        "table1" => cmd_table1(&options, out),
        "associate" => cmd_associate(&options, out),
        "figure" => cmd_figure(&options, out),
        "report" => cmd_report(&options, out),
        "simulate" => cmd_simulate(&options, out),
        "fleet" => cmd_fleet(&options, out),
        "campaign" => cmd_campaign(&options, out),
        "scenarios" => cmd_scenarios(out),
        "export-model" => cmd_export_model(&options, out),
        "export-corpus" => cmd_export_corpus(&options, out),
        "json" => cmd_json(&options, out),
        "snapshot" => cmd_snapshot(&options, out),
        "delta" => cmd_delta(&options, out),
        "serve" => cmd_serve(&options, out),
        "load" => cmd_load(&options, out),
        "flight" => cmd_flight(&options, out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown command `{other}` (run `cpssec help` for usage)"
        )),
    };
    if let Some(path) = &options.trace_path {
        result?;
        std::fs::write(path, cpssec_obs::recorder().trace_json())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
        return Ok(());
    }
    result
}

fn read_snapshot(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn cmd_snapshot(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let action = options
        .positional
        .first()
        .ok_or("snapshot needs an action: build, inspect, or verify")?;
    let path = options
        .positional
        .get(1)
        .ok_or_else(|| format!("snapshot {action} needs a .cpsnap file path"))?;
    match action.as_str() {
        "build" => {
            let corpus = load_corpus(options)?;
            let engine = SearchEngine::build(&corpus);
            let bytes = cpssec_search::snapshot::encode(&corpus, &engine);
            std::fs::write(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            let stats = corpus.stats();
            writeln!(
                out,
                "wrote {path}: {} bytes, {} records ({} patterns, {} weaknesses, {} vulnerabilities)",
                bytes.len(),
                stats.total(),
                stats.patterns,
                stats.weaknesses,
                stats.vulnerabilities
            )
            .map_err(|e| e.to_string())
        }
        "inspect" => {
            let bytes = read_snapshot(path)?;
            let info = cpssec_search::snapshot::inspect(&bytes)
                .map_err(|e| format!("invalid snapshot `{path}`: {e}"))?;
            if options.json {
                let sections: Vec<render::Json> = info
                    .sections
                    .iter()
                    .map(|section| {
                        render::Json::Object(vec![
                            ("name".into(), section.name.into()),
                            ("offset".into(), (section.offset as f64).into()),
                            ("bytes".into(), (section.len as f64).into()),
                            (
                                "checksum".into(),
                                format!("{:016x}", section.checksum).as_str().into(),
                            ),
                        ])
                    })
                    .collect();
                let artifact = render::Json::Object(vec![
                    ("path".into(), path.as_str().into()),
                    ("formatVersion".into(), f64::from(info.version).into()),
                    (
                        "snapshotId".into(),
                        format!("{:016x}", info.snapshot_id).as_str().into(),
                    ),
                    ("payloadBytes".into(), (info.payload_len() as f64).into()),
                    ("sections".into(), render::Json::Array(sections)),
                ]);
                return writeln!(out, "{}", artifact.to_text()).map_err(|e| e.to_string());
            }
            writeln!(
                out,
                "{path}: format version {}, snapshot id {:016x}",
                info.version, info.snapshot_id
            )
            .map_err(|e| e.to_string())?;
            for section in &info.sections {
                writeln!(
                    out,
                    "  {:<16} offset {:>12}  {:>12} bytes  checksum {:016x}",
                    section.name, section.offset, section.len, section.checksum
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        "verify" => {
            let bytes = read_snapshot(path)?;
            let (corpus, _engine) = cpssec_search::snapshot::verify(&bytes)
                .map_err(|e| format!("invalid snapshot `{path}`: {e}"))?;
            let stats = corpus.stats();
            writeln!(
                out,
                "ok: {} records ({} patterns, {} weaknesses, {} vulnerabilities)",
                stats.total(),
                stats.patterns,
                stats.weaknesses,
                stats.vulnerabilities
            )
            .map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown snapshot action `{other}` (expected build, inspect, or verify)"
        )),
    }
}

/// Resolves the state id a new delta should chain onto: the snapshot id
/// of a `.cpsnap`, or the child id of a `.cpsdelta` (so delta files can
/// chain on each other without re-reading the growing base).
fn parent_state_id(path: &str) -> Result<u64, String> {
    let bytes = read_snapshot(path)?;
    if let Ok(info) = cpssec_search::snapshot::inspect(&bytes) {
        return Ok(info.snapshot_id);
    }
    inspect_delta(&bytes)
        .map(|info| info.child_id)
        .map_err(|e| format!("`{path}` is neither a valid .cpsnap nor .cpsdelta: {e}"))
}

fn cmd_delta(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let action = options
        .positional
        .first()
        .ok_or("delta needs an action: build, inspect, apply, or compact")?;
    match action.as_str() {
        "build" => {
            let parent_path = options
                .positional
                .get(1)
                .ok_or("delta build needs a parent .cpsnap or .cpsdelta path")?;
            let out_path = options
                .positional
                .get(2)
                .ok_or("delta build needs an output .cpsdelta path")?;
            let parent = parent_state_id(parent_path)?;
            let batch = delta_batch(options.seed, options.records, options.serial);
            let bytes = build_delta(parent, &batch);
            let info = inspect_delta(&bytes).map_err(|e| format!("encode bug: {e}"))?;
            std::fs::write(out_path, &bytes)
                .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            writeln!(
                out,
                "wrote {out_path}: {} bytes, {} records, parent {:016x} -> child {:016x}",
                bytes.len(),
                info.records(),
                info.parent_id,
                info.child_id
            )
            .map_err(|e| e.to_string())
        }
        "inspect" => {
            let path = options
                .positional
                .get(1)
                .ok_or("delta inspect needs a .cpsdelta file path")?;
            let bytes = read_snapshot(path)?;
            let info = inspect_delta(&bytes).map_err(|e| format!("invalid delta `{path}`: {e}"))?;
            if options.json {
                let artifact = render::Json::Object(vec![
                    ("path".into(), path.as_str().into()),
                    ("formatVersion".into(), f64::from(info.version).into()),
                    (
                        "parentId".into(),
                        format!("{:016x}", info.parent_id).as_str().into(),
                    ),
                    (
                        "childId".into(),
                        format!("{:016x}", info.child_id).as_str().into(),
                    ),
                    ("records".into(), info.records().into()),
                    ("patterns".into(), info.patterns.into()),
                    ("weaknesses".into(), info.weaknesses.into()),
                    ("vulnerabilities".into(), info.vulnerabilities.into()),
                    ("payloadBytes".into(), info.payload_len.into()),
                ]);
                return writeln!(out, "{}", artifact.to_text()).map_err(|e| e.to_string());
            }
            writeln!(
                out,
                "{path}: format version {}, parent {:016x} -> child {:016x}",
                info.version, info.parent_id, info.child_id
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "  {} records ({} patterns, {} weaknesses, {} vulnerabilities), {} payload bytes",
                info.records(),
                info.patterns,
                info.weaknesses,
                info.vulnerabilities,
                info.payload_len
            )
            .map_err(|e| e.to_string())
        }
        "apply" | "compact" => {
            let base_path = options
                .positional
                .get(1)
                .ok_or_else(|| format!("delta {action} needs a base .cpsnap path"))?;
            let delta_paths = &options.positional[2..];
            if delta_paths.is_empty() {
                return Err(format!(
                    "delta {action} needs at least one .cpsdelta file after the base"
                ));
            }
            let base_bytes = read_snapshot(base_path)?;
            let mut state = cpssec_search::snapshot::inspect(&base_bytes)
                .map_err(|e| format!("invalid snapshot `{base_path}`: {e}"))?
                .snapshot_id;
            let (mut corpus, mut engine) = cpssec_search::snapshot::decode(&base_bytes)
                .map_err(|e| format!("invalid snapshot `{base_path}`: {e}"))?;
            let mut applied = 0usize;
            for path in delta_paths {
                let delta_bytes = read_snapshot(path)?;
                let info = apply_delta(&mut corpus, &mut engine, &delta_bytes, state)
                    .map_err(|e| format!("cannot apply `{path}`: {e}"))?;
                state = info.child_id;
                applied += info.records();
            }
            // `compact` rebases the chain: the written snapshot is proven
            // byte-identical to a rebuild-from-scratch of the grown
            // corpus, and its snapshot id becomes the new chain anchor.
            let encoded = if action == "compact" {
                compact_verified(&corpus, &engine).map_err(|e| e.to_string())?
            } else {
                cpssec_search::snapshot::encode(&corpus, &engine)
            };
            let out_path = options.out_path.as_deref().unwrap_or(base_path);
            std::fs::write(out_path, &encoded)
                .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            let stats = corpus.stats();
            let snapshot_id = cpssec_search::snapshot::inspect(&encoded)
                .map_err(|e| format!("encode bug: {e}"))?
                .snapshot_id;
            writeln!(
                out,
                "wrote {out_path}: {} bytes, {} records after {} delta(s) (+{applied}), snapshot id {snapshot_id:016x}",
                encoded.len(),
                stats.total(),
                delta_paths.len()
            )
            .map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown delta action `{other}` (expected build, inspect, apply, or compact)"
        )),
    }
}

fn cmd_serve(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let state = match &options.snapshot_path {
        Some(path) => {
            // Zero-copy boot: the file becomes one shared buffer that is
            // validated in place, the server starts listening right away,
            // and the owned decode thaws on a background thread (corpus
            // endpoints block until it lands).
            let bytes: std::sync::Arc<[u8]> = read_snapshot(path)?.into();
            cpssec_server::AppState::from_snapshot_mapped(bytes)
                .map_err(|e| format!("invalid snapshot `{path}`: {e}"))?
        }
        None => cpssec_server::AppState::new(load_corpus(options)?),
    };
    // SLO config: --slo file wins over the CPSSEC_SLO env var.
    let slo_text = match &options.slo_path {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?)
        }
        None => std::env::var("CPSSEC_SLO").ok(),
    };
    let slo_routes = match slo_text {
        Some(text) => {
            let config = cpssec_obs::SloConfig::parse(&text)
                .map_err(|e| format!("invalid SLO config: {e}"))?;
            let routes = config.slos.len();
            state.telemetry.install_slo(config);
            routes
        }
        None => 0,
    };
    let mut server = cpssec_server::Server::bind(&options.addr, options.workers, state)
        .map_err(|e| format!("cannot bind `{}`: {e}", options.addr))?;
    if let Some(tick_ms) = options.tick_ms {
        server.set_tick_ms(tick_ms);
    }
    {
        let state = server.state();
        if let Some(max_conns) = options.max_conns {
            state.admission.set_max_conns(max_conns);
        }
        if let Some(queue_depth) = options.queue_depth {
            state.admission.set_queue_depth(queue_depth);
        }
    }
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    cpssec_server::signal::install(&server.shutdown_flag());
    writeln!(
        out,
        "listening on {addr} ({} workers, {} SLOs)",
        options.workers, slo_routes
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let state = server.state();
    server.run().map_err(|e| format!("server error: {e}"))?;
    // Final telemetry snapshot after the drain — the trace ring flush
    // (--trace) happens in `run` once this command returns.
    let (cache_hits, cache_misses) = state.responses.stats();
    writeln!(
        out,
        "final snapshot: {} ticks, {} requests, {} slow, cache {cache_hits} hits / {cache_misses} misses",
        state.telemetry.ticks(),
        state.requests.recorded(),
        state.slow.observed(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "shutdown complete").map_err(|e| e.to_string())
}

/// `cpssec profile`: runs any other command under the continuous
/// sampling profiler and reports where the wall time went.
fn cmd_profile(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut hz: u64 = 99;
    let mut flame: Option<String> = None;
    let mut inner: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--hz" => {
                let value = iter.next().ok_or("--hz needs a value")?;
                hz = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| (1..=10_000).contains(&n))
                    .ok_or_else(|| format!("invalid hz `{value}` (expected 1..=10000)"))?;
            }
            "--flame" => {
                let value = iter.next().ok_or("--flame needs a path")?;
                flame = Some(value.clone());
            }
            other => inner.push(other.to_owned()),
        }
    }
    if inner.is_empty() {
        return Err(
            "profile needs a command to run (e.g. `cpssec profile associate scada`)".into(),
        );
    }
    if inner[0] == "profile" {
        return Err("profile cannot wrap itself".into());
    }
    // Spans are the sampled stack frames: without them every sample is
    // idle and the table degenerates to a single root line.
    cpssec_obs::recorder().enable_spans();
    let sampler = cpssec_obs::Sampler::start(hz);
    let result = run(&inner, out);
    let graph = sampler.stop();
    result?;
    write!(out, "{}", graph.table(15, cpssec_obs::stage_label)).map_err(|e| e.to_string())?;
    if let Some(path) = flame {
        std::fs::write(&path, graph.flame_json(cpssec_obs::stage_label))
            .map_err(|e| format!("cannot write flame graph `{path}`: {e}"))?;
        writeln!(out, "wrote {path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `cpssec flight inspect`: verify and render a `.cpsflight` dump.
fn cmd_flight(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let action = options
        .positional
        .first()
        .ok_or("flight needs an action: inspect")?;
    if action != "inspect" {
        return Err(format!(
            "unknown flight action `{action}` (expected inspect)"
        ));
    }
    let path = options
        .positional
        .get(1)
        .ok_or("flight inspect needs a .cpsflight file path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // `inspect` walks the section table and re-checksums every payload;
    // `decode` then trusts the verified bytes.
    cpssec_obs::flight::inspect(&bytes)
        .map_err(|e| format!("invalid flight dump `{path}`: {e}"))?;
    let dump = cpssec_obs::flight::decode(&bytes)
        .map_err(|e| format!("invalid flight dump `{path}`: {e}"))?;
    writeln!(out, "{path}:").map_err(|e| e.to_string())?;
    write!(out, "{}", dump.timeline()).map_err(|e| e.to_string())
}

fn cmd_load(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let report = cpssec_server::load::run(&cpssec_server::load::LoadConfig {
        addr: options.addr.clone(),
        clients: options.clients,
        requests: options.requests,
    });
    writeln!(out, "{}", report.summary()).map_err(|e| e.to_string())?;
    if report.errors > 0 {
        Err(format!("{} request(s) failed", report.errors))
    } else {
        Ok(())
    }
}

fn cmd_table1(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    let model = cpssec_scada::model::scada_model();
    let rows = attribute_rows(
        &model,
        &engine,
        &corpus,
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attribute.clone(),
                r.patterns.to_string(),
                r.weaknesses.to_string(),
                r.vulnerabilities.to_string(),
            ]
        })
        .collect();
    write!(
        out,
        "{}",
        text_table(
            &[
                "Attribute",
                "Attack Patterns",
                "Weaknesses",
                "Vulnerabilities"
            ],
            &cells,
        )
    )
    .map_err(|e| e.to_string())
}

fn load_model(path: &str) -> Result<SystemModel, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    cpssec_model::from_graphml(&xml).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn cmd_associate(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let path = options
        .positional
        .first()
        .ok_or("associate needs a GraphML model path (or `scada` for the built-in model)")?;
    let model = if path == "scada" {
        cpssec_scada::model::scada_model()
    } else {
        load_model(path)?
    };
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    let mut filters = FilterPipeline::new();
    if let Some(top) = options.top {
        filters = filters.then(cpssec_search::Filter::TopKPerFamily(top));
    }
    let map = AssociationMap::build(&model, &engine, &corpus, options.fidelity, &filters);
    let cells: Vec<Vec<String>> = map
        .iter()
        .map(|(component, matches)| {
            let (p, w, v) = matches.counts();
            vec![
                component.to_owned(),
                p.to_string(),
                w.to_string(),
                v.to_string(),
            ]
        })
        .collect();
    write!(
        out,
        "{}",
        text_table(
            &["Component", "Patterns", "Weaknesses", "Vulnerabilities"],
            &cells
        )
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "total: {} associated vectors at {} fidelity",
        map.total_vectors(),
        options.fidelity
    )
    .map_err(|e| e.to_string())
}

fn cmd_figure(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    let model = cpssec_scada::model::scada_model();
    let map = AssociationMap::build(
        &model,
        &engine,
        &corpus,
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );
    write!(out, "{}", render::model_dot(&model, Some(&map))).map_err(|e| e.to_string())
}

fn cmd_report(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    let model = cpssec_scada::model::scada_model();
    let filters = FilterPipeline::new();
    let association =
        AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    let rows = attribute_rows(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    let posture = SystemPosture::compute(&model, &corpus, &association);
    let consequences = if options.simulate {
        standard_analysis(&corpus, &engine, Fidelity::Implementation, options.ticks)
    } else {
        Vec::new()
    };
    let markdown = report::render_report(&report::ReportInput {
        model: &model,
        corpus: &corpus,
        association: &association,
        attribute_rows: &rows,
        posture: &posture,
        consequences: &consequences,
    });
    write!(out, "{markdown}").map_err(|e| e.to_string())
}

fn print_batch(report: &BatchReport, out: &mut dyn Write) -> Result<(), String> {
    writeln!(out, "product:            {}", report.product).map_err(|e| e.to_string())?;
    writeln!(out, "emergency stop:     {}", report.emergency_stopped).map_err(|e| e.to_string())?;
    writeln!(out, "exploded:           {}", report.exploded).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "max temperature:    {:.1} °C",
        report.max_temperature_c
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "max speed deviation: {:.2} rpm",
        report.max_speed_deviation_rpm
    )
    .map_err(|e| e.to_string())?;
    for hazard in &report.hazards {
        writeln!(out, "hazard: {hazard}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_simulate(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let name = options
        .positional
        .first()
        .ok_or("simulate needs a scenario name (see `cpssec scenarios`)")?;
    let config = ScadaConfig::default();
    let report = if name == "nominal" {
        ScadaHarness::new(config).run_batch_for(options.ticks)
    } else if let Some(attack) = attacks::all_scenarios()
        .into_iter()
        .find(|s| &s.name == name)
    {
        ScadaHarness::with_attack(config, &attack).run_batch_for(options.ticks)
    } else if let Some(fault) = faults::all_fault_scenarios()
        .into_iter()
        .find(|s| &s.name == name)
    {
        ScadaHarness::with_fault(config, &fault).run_batch_for(options.ticks)
    } else {
        return Err(format!(
            "unknown scenario `{name}` (see `cpssec scenarios`)"
        ));
    };
    writeln!(out, "scenario: {name} ({} ticks)", options.ticks).map_err(|e| e.to_string())?;
    print_batch(&report, out)
}

/// `cpssec fleet`: a Monte-Carlo attack campaign over the centrifuge.
///
/// Records (and therefore the aggregate hash) are a pure function of
/// `(--seed, --scenarios, --ticks, --classes)` — `--threads` only changes
/// the wall clock, never the statistics.
fn cmd_fleet(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let mut spec = CampaignSpec::new(options.scenarios, options.seed);
    spec.max_ticks = options.ticks;
    if let Some(threads) = options.threads {
        spec.threads = threads;
    }
    if let Some(raw) = &options.classes {
        let mut classes = Vec::new();
        for name in raw.split(',').filter(|s| !s.is_empty()) {
            classes.push(
                AttackClass::parse(name).ok_or_else(|| format!("unknown attack class `{name}`"))?,
            );
        }
        if classes.is_empty() {
            return Err("--classes needs at least one class name".into());
        }
        spec.classes = classes;
    }

    let started = std::time::Instant::now();
    let records = run_campaign(&spec);
    let elapsed = started.elapsed().as_secs_f64();
    let aggregate = cpssec_analysis::aggregate(&records);
    if options.json {
        return writeln!(
            out,
            "{}",
            cpssec_analysis::aggregate_json(&aggregate).to_text()
        )
        .map_err(|e| e.to_string());
    }
    write!(out, "{}", cpssec_analysis::aggregate_table(&aggregate)).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{} scenarios in {elapsed:.2}s ({:.1}/s, {} threads)",
        spec.scenarios,
        spec.scenarios as f64 / elapsed.max(1e-9),
        spec.threads
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "aggregate hash: {:016x}", aggregate.records_hash).map_err(|e| e.to_string())
}

/// `cpssec campaign`: executes every exploit chain matched against a
/// testbed model as a multi-stage attack campaign and reports the
/// per-chain verdicts.
///
/// Records (and therefore the records hash) are a pure function of
/// `(testbed, --seed)` — `--threads` only changes the wall clock.
fn cmd_campaign(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let name = options
        .positional
        .first()
        .ok_or("campaign needs a testbed: scada or water")?;
    let testbed = cpssec_campaign::Testbed::parse(name)
        .ok_or_else(|| format!("unknown testbed `{name}` (expected scada or water)"))?;
    let mut run = cpssec_campaign::CampaignRun::new(testbed, options.seed);
    if let Some(threads) = options.threads {
        run.threads = threads;
    }

    let started = std::time::Instant::now();
    let records = cpssec_campaign::run_campaign(&run);
    let elapsed = started.elapsed().as_secs_f64();
    if options.csv {
        return write!(out, "{}", cpssec_analysis::campaign_csv(&records))
            .map_err(|e| e.to_string());
    }
    let aggregate = cpssec_analysis::campaign_aggregate(testbed.as_str(), &records);
    if options.json {
        return writeln!(
            out,
            "{}",
            cpssec_analysis::campaign_json(&aggregate).to_text()
        )
        .map_err(|e| e.to_string());
    }
    write!(out, "{}", cpssec_analysis::campaign_table(&aggregate)).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{} chains in {elapsed:.2}s ({} reached hazard, {} contained, {} textual-only, {} threads)",
        aggregate.chains, aggregate.reached, aggregate.contained, aggregate.textual, run.threads
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "records hash: {:016x}", aggregate.records_hash).map_err(|e| e.to_string())
}

fn cmd_scenarios(out: &mut dyn Write) -> Result<(), String> {
    writeln!(out, "attack scenarios:").map_err(|e| e.to_string())?;
    for scenario in attacks::all_scenarios() {
        writeln!(
            out,
            "  {:<32} [{} / {}] -> {}",
            scenario.name,
            scenario.weakness_ids.join(","),
            scenario.pattern_ids.join(","),
            scenario.target_component
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "fault scenarios:").map_err(|e| e.to_string())?;
    for scenario in faults::all_fault_scenarios() {
        writeln!(out, "  {:<32} {}", scenario.name, scenario.description)
            .map_err(|e| e.to_string())?;
    }
    writeln!(out, "plus: nominal").map_err(|e| e.to_string())
}

fn cmd_export_model(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let model = cpssec_scada::model::scada_model().at_fidelity(options.fidelity);
    write!(out, "{}", cpssec_model::to_graphml(&model)).map_err(|e| e.to_string())
}

fn cmd_export_corpus(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let corpus = load_corpus(options)?;
    write!(out, "{}", cpssec_attackdb::jsonl::to_jsonl(&corpus)).map_err(|e| e.to_string())
}

fn cmd_json(options: &Options, out: &mut dyn Write) -> Result<(), String> {
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    let model = cpssec_scada::model::scada_model();
    let map = AssociationMap::build(
        &model,
        &engine,
        &corpus,
        options.fidelity,
        &FilterPipeline::new(),
    );
    let posture = SystemPosture::compute(&model, &corpus, &map);
    let artifact = render::association_json(&model, &map, &posture);
    writeln!(out, "{}", artifact.to_text()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::json::JsonValue;

    fn run_capture(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut buffer = Vec::new();
        run(&owned, &mut buffer)?;
        Ok(String::from_utf8(buffer).expect("utf8 output"))
    }

    #[test]
    fn parse_defaults_and_flags() {
        let options = parse_options(&[]).unwrap();
        assert_eq!(options.scale, 0.05);
        assert_eq!(options.fidelity, Fidelity::Implementation);

        let options = parse_options(
            &[
                "--scale",
                "0.2",
                "--fidelity",
                "conceptual",
                "--top",
                "5",
                "--simulate",
                "pos",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.scale, 0.2);
        assert_eq!(options.fidelity, Fidelity::Conceptual);
        assert_eq!(options.top, Some(5));
        assert!(options.simulate);
        assert_eq!(options.positional, ["pos"]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_options(&["--scale".into()]).is_err());
        assert!(parse_options(&["--scale".into(), "x".into()]).is_err());
        assert!(parse_options(&["--scale".into(), "0".into()]).is_err());
        assert!(parse_options(&["--fidelity".into(), "exact".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
    }

    #[test]
    fn unknown_command_fails_on_one_line() {
        let err = run_capture(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("cpssec help"));
        assert_eq!(err.lines().count(), 1, "error must be one line: {err:?}");
    }

    #[test]
    fn help_prints_usage() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("cpssec table1"));
    }

    #[test]
    fn table1_prints_all_six_attributes() {
        let output = run_capture(&["table1", "--scale", "0.01"]).unwrap();
        for attribute in [
            "Cisco ASA",
            "NI RT Linux OS",
            "Windows 7",
            "Labview",
            "NI cRIO 9063",
        ] {
            assert!(output.contains(attribute), "missing {attribute}");
        }
    }

    #[test]
    fn scenarios_lists_attacks_and_faults() {
        let output = run_capture(&["scenarios"]).unwrap();
        assert!(output.contains("bpcs-command-injection"));
        assert!(output.contains("chiller-degradation"));
        assert!(output.contains("nominal"));
    }

    #[test]
    fn simulate_nominal_reports_nominal() {
        let output = run_capture(&["simulate", "nominal", "--ticks", "4010"]).unwrap();
        assert!(output.contains("product:            nominal"));
    }

    #[test]
    fn simulate_attack_by_name() {
        let output = run_capture(&["simulate", "setpoint-tamper", "--ticks", "4010"]).unwrap();
        assert!(output.contains("ruined-speed"));
    }

    #[test]
    fn simulate_fault_by_name() {
        let output = run_capture(&["simulate", "chiller-degradation", "--ticks", "12000"]).unwrap();
        assert!(output.contains("emergency stop:     true"));
    }

    #[test]
    fn simulate_unknown_scenario_fails() {
        assert!(run_capture(&["simulate", "ghost"])
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn parse_fleet_flags() {
        let options = parse_options(
            &[
                "--scenarios",
                "50",
                "--seed",
                "9",
                "--threads",
                "3",
                "--classes",
                "nominal",
                "--json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.scenarios, 50);
        assert_eq!(options.seed, 9);
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.classes.as_deref(), Some("nominal"));
        assert!(options.json);
        assert!(parse_options(&["--scenarios".into(), "0".into()]).is_err());
        assert!(parse_options(&["--threads".into(), "0".into()]).is_err());
        assert!(parse_options(&["--seed".into(), "x".into()]).is_err());
    }

    fn hash_line(output: &str) -> String {
        output
            .lines()
            .find(|l| l.starts_with("aggregate hash: ") || l.starts_with("records hash: "))
            .expect("hash line present")
            .to_owned()
    }

    #[test]
    fn campaign_hash_is_thread_count_independent() {
        let args = |threads: &'static str| vec!["campaign", "water", "--threads", threads];
        let two = run_capture(&args("2")).unwrap();
        assert!(two.contains("reached-hazard"), "{two}");
        assert!(two.contains("dosing interlock"), "{two}");
        let one = run_capture(&args("1")).unwrap();
        assert_eq!(hash_line(&two), hash_line(&one));
    }

    #[test]
    fn campaign_json_emits_the_verdict_artifact() {
        let output = run_capture(&["campaign", "scada", "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("recordsHash").is_some());
        assert_eq!(
            value.get("testbed").and_then(JsonValue::as_str),
            Some("scada")
        );
        assert!(value.get("reachedHazard").is_some());
    }

    #[test]
    fn campaign_csv_lists_every_chain() {
        let output = run_capture(&["campaign", "scada", "--csv"]).unwrap();
        assert!(output.starts_with("index,seed,chain,"));
        assert!(output.contains("sis-disable-command-injection"));
        assert!(output.contains("textual-only"));
    }

    #[test]
    fn campaign_rejects_unknown_testbeds() {
        let err = run_capture(&["campaign", "gasworks"]).unwrap_err();
        assert!(err.contains("unknown testbed"));
        let err = run_capture(&["campaign"]).unwrap_err();
        assert!(err.contains("needs a testbed"));
    }

    #[test]
    fn fleet_hash_is_thread_count_independent() {
        let args = |threads: &'static str| {
            vec![
                "fleet",
                "--scenarios",
                "6",
                "--seed",
                "9",
                "--ticks",
                "1500",
                "--threads",
                threads,
            ]
        };
        let two = run_capture(&args("2")).unwrap();
        assert!(two.contains("P(hazard)"), "{two}");
        assert!(two.contains("6 scenarios in"), "{two}");
        let one = run_capture(&args("1")).unwrap();
        assert_eq!(hash_line(&two), hash_line(&one));
    }

    #[test]
    fn fleet_json_emits_the_aggregate_artifact() {
        let output = run_capture(&[
            "fleet",
            "--scenarios",
            "4",
            "--seed",
            "3",
            "--ticks",
            "1500",
            "--json",
        ])
        .unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("recordsHash").is_some());
        assert_eq!(
            value.get("scenarios"),
            Some(&cpssec_attackdb::json::JsonValue::Number(4.0))
        );
    }

    #[test]
    fn fleet_restricts_classes_and_rejects_unknown_ones() {
        let output = run_capture(&[
            "fleet",
            "--scenarios",
            "3",
            "--ticks",
            "1200",
            "--classes",
            "nominal",
        ])
        .unwrap();
        assert!(output.contains("nominal"), "{output}");
        assert!(!output.contains("command-injection"), "{output}");
        let err = run_capture(&["fleet", "--classes", "quantum"]).unwrap_err();
        assert!(err.contains("quantum"));
        let err = run_capture(&["fleet", "--classes", ","]).unwrap_err();
        assert!(err.contains("at least one class"));
    }

    #[test]
    fn export_model_then_associate_round_trips() {
        let xml = run_capture(&["export-model"]).unwrap();
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.graphml");
        std::fs::write(&path, xml).unwrap();
        let output = run_capture(&[
            "associate",
            path.to_str().unwrap(),
            "--scale",
            "0.01",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(output.contains("SIS platform"));
        assert!(output.contains("total:"));
    }

    #[test]
    fn figure_emits_dot() {
        let output = run_capture(&["figure", "--scale", "0.01"]).unwrap();
        assert!(output.starts_with("graph"));
        assert!(output.contains("CVE"));
    }

    #[test]
    fn report_contains_sections_and_simulation_is_optional() {
        let output = run_capture(&["report", "--scale", "0.01"]).unwrap();
        assert!(output.contains("# Security analysis report"));
        assert!(!output.contains("## Simulated consequences"));
    }

    #[test]
    fn associate_requires_a_path() {
        assert!(run_capture(&["associate"]).unwrap_err().contains("GraphML"));
    }

    #[test]
    fn associate_scada_uses_the_builtin_model() {
        let output = run_capture(&["associate", "scada", "--scale", "0.01", "--top", "3"]).unwrap();
        assert!(output.contains("SIS platform"));
        assert!(output.contains("total:"));
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit-trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        run_capture(&[
            "associate",
            "scada",
            "--scale",
            "0.01",
            "--trace",
            &path_str,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = cpssec_attackdb::json::parse(&text).expect("trace is valid json");
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty(), "trace should contain span events");
        for event in events {
            assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
        }
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains(&"associate"), "stages seen: {names:?}");
        assert!(names.contains(&"score"), "stages seen: {names:?}");
    }

    #[test]
    fn parse_trace_flag() {
        let options = parse_options(&["--trace".into(), "out.json".into()]).unwrap();
        assert_eq!(options.trace_path.as_deref(), Some("out.json"));
        assert!(parse_options(&["--trace".into()]).is_err());
    }

    #[test]
    fn export_corpus_round_trips_through_corpus_flag() {
        let jsonl = run_capture(&["export-corpus", "--scale", "0.01"]).unwrap();
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        std::fs::write(&path, &jsonl).unwrap();
        let output = run_capture(&["table1", "--corpus", path.to_str().unwrap()]).unwrap();
        assert!(output.contains("Cisco ASA"));
        // Same corpus either way: identical table.
        let direct = run_capture(&["table1", "--scale", "0.01"]).unwrap();
        assert_eq!(output, direct);
    }

    #[test]
    fn json_emits_a_parsable_dashboard_artifact() {
        let output = run_capture(&["json", "--scale", "0.01"]).unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("systemScore").is_some());
        assert!(value.get("components").unwrap().as_array().unwrap().len() == 8);
    }

    #[test]
    fn corpus_flag_with_missing_file_fails() {
        let err = run_capture(&["table1", "--corpus", "/nonexistent/corpus.jsonl"]).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn parse_delta_flags() {
        let options = parse_options(
            &["--records", "500", "--serial", "2", "--out", "x.cpsnap"].map(String::from),
        )
        .unwrap();
        assert_eq!(options.records, 500);
        assert_eq!(options.serial, 2);
        assert_eq!(options.out_path.as_deref(), Some("x.cpsnap"));
        assert!(parse_options(&["--records".into(), "0".into()]).is_err());
        assert!(parse_options(&["--records".into(), "10001".into()]).is_err());
        assert!(parse_options(&["--serial".into(), "-1".into()]).is_err());
        assert!(parse_options(&["--out".into()]).is_err());
    }

    #[test]
    fn delta_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["delta"], "needs an action"),
            (vec!["delta", "refry", "x"], "unknown delta action"),
            (vec!["delta", "build"], "needs a parent"),
            (vec!["delta", "apply", "base.cpsnap"], "at least one"),
            (vec!["delta", "inspect"], "needs a .cpsdelta"),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn snapshot_inspect_emits_offsets_and_json() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inspect.cpsnap");
        let path = path.to_str().unwrap().to_owned();
        run_capture(&["snapshot", "build", &path, "--scale", "0.01"]).unwrap();

        let text = run_capture(&["snapshot", "inspect", &path]).unwrap();
        assert!(text.contains("snapshot id"), "{text}");
        assert!(text.contains("offset"), "{text}");

        let json = run_capture(&["snapshot", "inspect", &path, "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(json.trim()).expect("valid json");
        assert_eq!(value.get("formatVersion"), Some(&JsonValue::Number(3.0)));
        let sections = value.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), 4);
        for section in sections {
            assert!(section.get("offset").is_some(), "{section:?}");
            assert!(section.get("checksum").is_some(), "{section:?}");
        }
        // The text and JSON outputs agree on the snapshot id.
        let id = value.get("snapshotId").and_then(JsonValue::as_str).unwrap();
        assert!(text.contains(id), "{id} not in {text}");
    }

    #[test]
    fn profile_wraps_a_command_and_writes_the_flame_graph() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let flame = dir.join("unit-flame.json");
        let flame_str = flame.to_str().unwrap().to_owned();
        let output = run_capture(&[
            "profile",
            "--hz",
            "997",
            "--flame",
            &flame_str,
            "associate",
            "scada",
            "--scale",
            "0.01",
        ])
        .unwrap();
        // The wrapped command's own output comes through untouched...
        assert!(output.contains("SIS platform"), "{output}");
        assert!(output.contains("total:"), "{output}");
        // ...followed by the profiler's self-time table.
        assert!(output.contains("self µs"), "{output}");
        assert!(output.contains("Hz"), "{output}");
        assert!(output.contains(&format!("wrote {flame_str}")), "{output}");
        let text = std::fs::read_to_string(&flame).unwrap();
        let value = cpssec_attackdb::json::parse(&text).expect("flame graph is valid json");
        assert_eq!(value.get("name").and_then(JsonValue::as_str), Some("root"));
        assert!(value.get("value").is_some(), "{text}");
    }

    #[test]
    fn profile_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["profile"], "needs a command"),
            (vec!["profile", "profile", "help"], "cannot wrap itself"),
            (vec!["profile", "--hz", "0", "help"], "invalid hz"),
            (vec!["profile", "--flame"], "needs a path"),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn flight_inspect_renders_a_dump_and_rejects_corruption() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.cpsflight");
        let path_str = path.to_str().unwrap().to_owned();
        cpssec_obs::flight::set_enabled(true);
        cpssec_obs::flight::event(
            cpssec_obs::FlightKind::Shed,
            cpssec_obs::flight::label_id("GET /unit"),
            cpssec_obs::flight::label_id("queue_full"),
        );
        let bytes = cpssec_obs::flight::encode_dump(&cpssec_obs::flight::DumpInput {
            reason: "unit-test",
            requests_json: "{\"requests\":[]}",
            alerts_json: "{\"alerts\":[]}",
            metrics_text: "",
        });
        std::fs::write(&path, &bytes).unwrap();

        let output = run_capture(&["flight", "inspect", &path_str]).unwrap();
        assert!(output.contains("reason: unit-test"), "{output}");
        assert!(output.contains("thread"), "{output}");
        assert!(output.contains("GET /unit"), "{output}");

        // One flipped payload byte must fail checksum verification
        // (flip inside a real section — trailing alignment padding is
        // not covered by any checksum).
        let info = cpssec_obs::flight::inspect(&bytes).unwrap();
        let section = info.sections.iter().find(|s| s.len > 0).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[section.offset as usize] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let err = run_capture(&["flight", "inspect", &path_str]).unwrap_err();
        assert!(err.contains("invalid flight dump"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err:?}");
    }

    #[test]
    fn flight_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["flight"], "needs an action"),
            (vec!["flight", "replay", "x"], "unknown flight action"),
            (vec!["flight", "inspect"], "needs a .cpsflight"),
            (
                vec!["flight", "inspect", "/nonexistent.cpsflight"],
                "cannot read",
            ),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn delta_build_apply_compact_round_trip() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path_of = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let base = path_of("delta-base.cpsnap");
        run_capture(&["snapshot", "build", &base, "--scale", "0.01"]).unwrap();

        let d0 = path_of("chain-0.cpsdelta");
        let out = run_capture(&[
            "delta",
            "build",
            &base,
            &d0,
            "--records",
            "40",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("40 records"), "{out}");

        // A second delta chains onto the first delta *file* directly.
        let d1 = path_of("chain-1.cpsdelta");
        run_capture(&[
            "delta",
            "build",
            &d0,
            &d1,
            "--records",
            "40",
            "--seed",
            "5",
            "--serial",
            "1",
        ])
        .unwrap();
        let json = run_capture(&["delta", "inspect", &d1, "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(json.trim()).expect("valid json");
        assert_eq!(value.get("records"), Some(&JsonValue::Number(40.0)));

        // Apply both; the grown snapshot verifies clean.
        let grown = path_of("delta-grown.cpsnap");
        let out = run_capture(&["delta", "apply", &base, &d0, &d1, "--out", &grown]).unwrap();
        assert!(out.contains("+80"), "{out}");
        let check = run_capture(&["snapshot", "verify", &grown]).unwrap();
        assert!(check.starts_with("ok: "), "{check}");

        // Compaction is proven byte-identical to rebuild-from-scratch,
        // and the canonical encoder makes apply's output match it too.
        let compacted = path_of("delta-compacted.cpsnap");
        run_capture(&["delta", "compact", &base, &d0, &d1, "--out", &compacted]).unwrap();
        assert_eq!(
            std::fs::read(&grown).unwrap(),
            std::fs::read(&compacted).unwrap()
        );

        // Skipping a link in the chain is a parent mismatch.
        let err = run_capture(&["delta", "apply", &base, &d1, "--out", &grown]).unwrap_err();
        assert!(err.contains("parent"), "{err}");
    }
}
